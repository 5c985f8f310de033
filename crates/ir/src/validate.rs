//! Structural validation of finished programs.

use std::error::Error;
use std::fmt;

use crate::instr::{Callee, Instr};
use crate::program::{MethodKind, Program};
use crate::types::{BlockId, Local, MethodId};

/// A structural defect found during program validation.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ValidateError {
    /// A method was declared but no body was attached.
    MissingBody {
        /// Signature of the offending method.
        method: String,
    },
    /// A terminator referenced a block index that does not exist.
    DanglingBlock {
        /// Signature of the offending method.
        method: String,
        /// Block containing the bad terminator.
        from: BlockId,
        /// The nonexistent target.
        target: BlockId,
    },
    /// An instruction referenced a local ≥ `n_locals`.
    LocalOutOfRange {
        /// Signature of the offending method.
        method: String,
        /// The out-of-range local.
        local: Local,
        /// The method's local count.
        n_locals: u16,
    },
    /// A call referenced a method id that does not exist.
    BadMethodRef {
        /// Signature of the calling method.
        method: String,
        /// The nonexistent callee id.
        callee: MethodId,
    },
    /// A field access referenced a field id that does not exist, or used a
    /// static accessor on an instance field (or vice versa).
    BadFieldRef {
        /// Signature of the offending method.
        method: String,
        /// Description of the problem.
        detail: String,
    },
    /// The program entry point is missing or not a static method.
    BadEntry,
    /// A class's superclass chain contains a cycle.
    InheritanceCycle {
        /// Name of a class on the cycle.
        class: String,
    },
}

impl fmt::Display for ValidateError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            ValidateError::MissingBody { method } => {
                write!(f, "method {method} has no body")
            }
            ValidateError::DanglingBlock {
                method,
                from,
                target,
            } => write!(f, "method {method}: {from} jumps to nonexistent {target}"),
            ValidateError::LocalOutOfRange {
                method,
                local,
                n_locals,
            } => write!(
                f,
                "method {method}: {local} out of range (n_locals = {n_locals})"
            ),
            ValidateError::BadMethodRef { method, callee } => {
                write!(f, "method {method}: call to nonexistent {callee}")
            }
            ValidateError::BadFieldRef { method, detail } => {
                write!(f, "method {method}: {detail}")
            }
            ValidateError::BadEntry => write!(f, "entry point missing or not a static method"),
            ValidateError::InheritanceCycle { class } => {
                write!(f, "inheritance cycle through class {class}")
            }
        }
    }
}

impl Error for ValidateError {}

/// Validates the structural invariants of a program.
///
/// # Errors
/// Returns the first [`ValidateError`] found.
pub fn validate(p: &Program) -> Result<(), ValidateError> {
    // Inheritance must be acyclic.
    for (i, _) in p.classes().iter().enumerate() {
        let start = crate::types::ClassId::from(i);
        let mut slow = Some(start);
        let mut fast = p.class(start).superclass;
        while let (Some(s), Some(fa)) = (slow, fast) {
            if s == fa {
                return Err(ValidateError::InheritanceCycle {
                    class: p.class(s).name.clone(),
                });
            }
            slow = p.class(s).superclass;
            fast = p.class(fa).superclass.and_then(|c| p.class(c).superclass);
        }
    }

    for (mi, m) in p.methods().iter().enumerate() {
        let mid = MethodId::from(mi);
        let sig = p.method_signature(mid);
        if m.blocks.is_empty() {
            return Err(ValidateError::MissingBody { method: sig });
        }
        let n_blocks = m.blocks.len();
        let check_local = |l: Local| -> Result<(), ValidateError> {
            if l.index() >= m.n_locals as usize {
                Err(ValidateError::LocalOutOfRange {
                    method: p.method_signature(mid),
                    local: l,
                    n_locals: m.n_locals,
                })
            } else {
                Ok(())
            }
        };
        for b in &m.blocks {
            for t in b.terminator.successors() {
                if t.index() >= n_blocks {
                    return Err(ValidateError::DanglingBlock {
                        method: sig.clone(),
                        from: BlockId(0),
                        target: t,
                    });
                }
            }
            if let crate::instr::Terminator::Br { cond, .. } = b.terminator {
                check_local(cond)?;
            }
            if let crate::instr::Terminator::Ret(Some(v)) = b.terminator {
                check_local(v)?;
            }
            for ins in &b.instrs {
                if let Some(d) = ins.dst() {
                    check_local(d)?;
                }
                for s in ins.sources() {
                    check_local(s)?;
                }
                let target = match ins {
                    Instr::Call(c) => match c.callee {
                        Callee::Static(m) => Some(m),
                        Callee::Virtual { .. } => None,
                    },
                    Instr::Spawn(s) => Some(s.method),
                    _ => None,
                };
                if let Some(callee) = target.filter(|m| m.index() >= p.methods().len()) {
                    return Err(ValidateError::BadMethodRef {
                        method: sig.clone(),
                        callee,
                    });
                }
                match ins {
                    Instr::GetField(_, _, fid) | Instr::PutField(_, fid, _) => {
                        check_field(p, &sig, *fid, false)?;
                    }
                    Instr::GetStatic(_, fid) | Instr::PutStatic(fid, _) => {
                        check_field(p, &sig, *fid, true)?;
                    }
                    _ => {}
                }
            }
        }
    }

    if let Some(e) = p.entry {
        if e.index() >= p.methods().len() || p.method(e).kind != MethodKind::Static {
            return Err(ValidateError::BadEntry);
        }
    }
    Ok(())
}

fn check_field(
    p: &Program,
    method_sig: &str,
    fid: crate::types::FieldId,
    want_static: bool,
) -> Result<(), ValidateError> {
    if fid.index() >= p.fields().len() {
        return Err(ValidateError::BadFieldRef {
            method: method_sig.to_string(),
            detail: format!("nonexistent field {fid}"),
        });
    }
    let f = p.field(fid);
    if f.is_static != want_static {
        return Err(ValidateError::BadFieldRef {
            method: method_sig.to_string(),
            detail: format!(
                "field {} is {} but accessed as {}",
                p.field_signature(fid),
                if f.is_static { "static" } else { "instance" },
                if want_static { "static" } else { "instance" },
            ),
        });
    }
    Ok(())
}
