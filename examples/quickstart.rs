//! Quickstart: hand-build a tiny program with the IR builder, run the full
//! profile-guided reordering pipeline and print the result.
//!
//! ```sh
//! cargo run --release --example quickstart
//! ```

use nimage::ir::{ProgramBuilder, TypeRef};
use nimage::vm::{CostModel, StopWhen};
use nimage::{BuildOptions, EvalRequest, PipelineError, Strategy, WorkloadSpec};

fn main() -> Result<(), PipelineError> {
    // A program with a cold-but-reachable half and a hot half, plus a heap
    // snapshot built by a class initializer: the minimal shape on which
    // binary reordering pays off.
    let mut pb = ProgramBuilder::new();

    let cell = pb.add_class("demo.Cell", None);
    let cell_val = pb.add_instance_field(cell, "val", TypeRef::Int);
    let data = pb.add_class("demo.Data", None);
    let table = pb.add_static_field(data, "TABLE", TypeRef::array_of(TypeRef::Object(cell)));
    let clinit = pb.declare_clinit(data);
    let mut f = pb.body(clinit);
    let n = f.iconst(8_000);
    let arr = f.new_array(TypeRef::Object(cell), n);
    let from = f.iconst(0);
    f.for_range(from, n, |f, i| {
        let c = f.new_object(cell);
        let sq = f.mul(i, i);
        f.put_field(c, cell_val, sq);
        f.array_set(arr, i, c);
    });
    f.put_static(table, arr);
    f.ret(None);
    pb.finish_body(clinit, f);

    let app = pb.add_class("demo.Main", None);
    let cold_flag = pb.add_static_field(app, "COLD", TypeRef::Bool);
    let mut workers = vec![];
    for i in 0..60 {
        let m = pb.declare_static(app, &format!("step{i:02}"), &[], Some(TypeRef::Int));
        let mut f = pb.body(m);
        let mut v = f.iconst(i);
        for _ in 0..300 {
            let one = f.iconst(1);
            v = f.add(v, one);
        }
        f.ret(Some(v));
        pb.finish_body(m, f);
        workers.push(m);
    }

    let main = pb.declare_static(app, "main", &[], Some(TypeRef::Int));
    let mut f = pb.body(main);
    let acc = f.iconst(0);
    // Keep everything reachable; execute only every fifth step.
    let take_cold = f.get_static(cold_flag);
    let cold: Vec<_> = workers
        .iter()
        .enumerate()
        .filter(|(i, _)| i % 5 != 0)
        .map(|(_, &m)| m)
        .collect();
    f.if_then(take_cold, |f| {
        for &m in &cold {
            let v = f.call_static(m, &[], true).unwrap();
            let s = f.add(acc, v);
            f.assign(acc, s);
        }
    });
    for (i, &m) in workers.iter().enumerate() {
        if i % 5 == 0 {
            let v = f.call_static(m, &[], true).unwrap();
            let s = f.add(acc, v);
            f.assign(acc, s);
        }
    }
    // Read a sparse sample of the snapshot.
    let arr = f.get_static(table);
    let len = f.array_len(arr);
    let stride = f.iconst(400);
    let i = f.iconst(0);
    f.while_loop(
        |f| f.lt(i, len),
        |f| {
            let c = f.array_get(arr, i);
            let v = f.get_field(c, cell_val);
            let s = f.add(acc, v);
            f.assign(acc, s);
            let next = f.add(i, stride);
            f.assign(i, next);
        },
    );
    f.ret(Some(acc));
    pb.finish_body(main, f);
    pb.set_entry(main);
    let program = pb.build().expect("program validates");

    // The whole paper in one request: profile once, evaluate the combined
    // cu + heap-path strategy against the default layout.
    let spec = WorkloadSpec::new(
        "quickstart",
        &program,
        BuildOptions::default(),
        StopWhen::Exit,
    );
    let outcome = EvalRequest::new()
        .workload(spec)
        .strategy(Strategy::CuPlusHeapPath)
        .run()?;
    let eval = &outcome.cells[0].eval;

    let cm = CostModel::ssd();
    println!("strategy            : {}", eval.strategy.name());
    println!(
        "page faults         : {:?} -> {:?}",
        eval.baseline.faults, eval.optimized.faults
    );
    println!(
        "fault reduction     : {:.2}x (.text {:.2}x, .svm_heap {:.2}x)",
        eval.total_fault_reduction(),
        eval.text_fault_reduction(),
        eval.heap_fault_reduction()
    );
    println!(
        "startup speedup     : {:.2}x (SSD cost model)",
        eval.speedup(&cm)
    );
    assert_eq!(
        eval.baseline.entry_return, eval.optimized.entry_return,
        "reordering never changes program results"
    );
    Ok(())
}
