//! The four workloads and the programs a seed generates for them.
//!
//! Why each exists is recorded in `BENCHMARK.json` and the README; here is
//! only what differs between them: which programs, and which disk-cache
//! tier an evaluation pass runs against.

use nimage_core::{BuildOptions, Parallelism, WorkloadSpec};
use nimage_ir::Program;
use nimage_profiler::DumpMode;
use nimage_vm::{StopWhen, VmConfig};
use nimage_workloads::{Awfy, Microservice, RuntimeScale};

/// Worker threads of the engine and of the intra-stage pools. Fixed (never
/// `0` = host parallelism) so the numbers do not depend on the host.
pub const THREADS: usize = 2;

/// Which programs a workload evaluates.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Programs {
    /// The three microservices at the bundled scale, stopped at the first
    /// response: the build side (order, optimize, snapshot) dominates.
    Micro,
    /// All 14 AWFY benchmarks over the small runtime, run to exit: the VM
    /// dominates.
    AwfySmall,
}

/// Which disk-cache tier a pass runs against.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Tier {
    /// No disk cache: everything is computed.
    None,
    /// A cache directory populated once in set-up: everything persistable
    /// is read back.
    Warm,
    /// A cache directory emptied before every pass: everything is computed
    /// and written.
    Populate,
}

/// One benchmark workload.
#[derive(Debug, Clone, Copy)]
pub struct Workload {
    pub name: &'static str,
    pub programs: Programs,
    pub tier: Tier,
}

pub const WORKLOADS: [Workload; 4] = [
    Workload {
        name: "micro_cold",
        programs: Programs::Micro,
        tier: Tier::None,
    },
    Workload {
        name: "awfy_vm",
        programs: Programs::AwfySmall,
        tier: Tier::None,
    },
    Workload {
        name: "micro_warm",
        programs: Programs::Micro,
        tier: Tier::Warm,
    },
    Workload {
        name: "micro_populate",
        programs: Programs::Micro,
        tier: Tier::Populate,
    },
];

pub fn find(name: &str) -> Option<&'static Workload> {
    WORKLOADS.iter().find(|w| w.name == name)
}

/// The seed of the bundled programs: scales exactly as the workloads
/// crate ships them.
pub const BUNDLED_SEED: u64 = 1;

/// Largest relative change a seed applies to a runtime-scale knob. Sized
/// from measurement: at ±8 % the seed alone moved `pass_ms` by ±4 % on the
/// microservices (order/optimize cost grows faster than program size),
/// half of what the host's own drift leaves of the regression bound.
const JITTER: f64 = 0.03;

/// splitmix64: the seed stream behind the scale jitter.
struct Rng(u64);

impl Rng {
    fn next(&mut self) -> u64 {
        self.0 = self.0.wrapping_add(0x9e37_79b9_7f4a_7c15);
        let mut z = self.0;
        z = (z ^ (z >> 30)).wrapping_mul(0xbf58_476d_1ce4_e5b9);
        z = (z ^ (z >> 27)).wrapping_mul(0x94d0_49bb_1331_11eb);
        z ^ (z >> 31)
    }

    /// Uniform in `[0, 1)`.
    fn unit(&mut self) -> f64 {
        (self.next() >> 11) as f64 / (1u64 << 53) as f64
    }

    fn jitter(&mut self, knob: usize) -> usize {
        let factor = 1.0 + JITTER * (2.0 * self.unit() - 1.0);
        ((knob as f64 * factor).round() as usize).max(1)
    }
}

/// The runtime scale `Microservice::program()` builds at (a self-test pins
/// the two together).
fn micro_scale() -> RuntimeScale {
    RuntimeScale {
        modules: 50,
        ..RuntimeScale::default()
    }
}

/// The programs of one workload for one seed, with the stop condition and
/// trace dump mode every evaluation of them uses. Only `&Program`s of this
/// set reach the engine.
pub struct ProgramSet {
    pub programs: Vec<(&'static str, Program)>,
    pub stop: StopWhen,
    dump_mode: DumpMode,
}

impl ProgramSet {
    /// Generates the set. [`BUNDLED_SEED`] gives the bundled scales; any
    /// other seed jitters `modules`, `metas`, `hot_pad` and `cold_pad` of
    /// every program by up to ±[`JITTER`].
    ///
    /// The program order is the bundled one for every seed: with two
    /// workers the order decides whether the largest program's cells end
    /// the pass alone, which moved `pass_ms` by 8 % between seeds — more
    /// spread than the regression bound can carry.
    pub fn generate(programs: Programs, seed: u64) -> ProgramSet {
        let mut rng = Rng(seed);
        let mut scaled = |base: RuntimeScale| {
            if seed == BUNDLED_SEED {
                return base;
            }
            RuntimeScale {
                modules: rng.jitter(base.modules),
                metas: rng.jitter(base.metas),
                hot_pad: rng.jitter(base.hot_pad),
                cold_pad: rng.jitter(base.cold_pad),
                ..base
            }
        };
        let (programs, stop, dump_mode): (Vec<_>, _, _) = match programs {
            Programs::Micro => (
                Microservice::all()
                    .iter()
                    .map(|m| (m.name(), m.program_at(&scaled(micro_scale()))))
                    .collect(),
                // Services park in an accept loop and never exit.
                StopWhen::FirstResponse,
                DumpMode::MemoryMapped,
            ),
            Programs::AwfySmall => (
                Awfy::all()
                    .iter()
                    .map(|a| (a.name(), a.program_at(&scaled(RuntimeScale::small()))))
                    .collect(),
                StopWhen::Exit,
                DumpMode::OnFull,
            ),
        };
        ProgramSet {
            programs,
            stop,
            dump_mode,
        }
    }

    /// The paper's build options (4 KiB pages, 16-page fault-around) with
    /// this set's dump mode and `threads` intra-stage workers.
    pub fn options(&self, threads: usize) -> BuildOptions {
        BuildOptions {
            vm: VmConfig {
                dump_mode: self.dump_mode,
                ..VmConfig::default()
            },
            threads: Parallelism::threads(threads),
            ..BuildOptions::default()
        }
    }

    /// The evaluation rows, with `threads` intra-stage workers.
    pub fn specs(&self, threads: usize) -> impl Iterator<Item = WorkloadSpec<'_>> {
        let opts = self.options(threads);
        self.programs
            .iter()
            .map(move |(name, program)| WorkloadSpec::new(*name, program, opts.clone(), self.stop))
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bundled_seed_reproduces_the_bundled_microservices() {
        let set = ProgramSet::generate(Programs::Micro, BUNDLED_SEED);
        for (m, (name, program)) in Microservice::all().iter().zip(&set.programs) {
            assert_eq!(*name, m.name());
            assert_eq!(format!("{program:?}"), format!("{:?}", m.program()));
        }
    }

    #[test]
    fn a_seed_gives_the_same_inputs_twice_and_other_seeds_differ() {
        let render = |seed| {
            let set = ProgramSet::generate(Programs::AwfySmall, seed);
            format!("{:?}", set.programs)
        };
        assert_eq!(render(7), render(7));
        assert_ne!(render(7), render(8));
        assert_ne!(render(7), render(BUNDLED_SEED));
    }
}
