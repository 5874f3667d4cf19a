//! Program container and label-resolving builder.

use crate::isa::{Cond, Instr, Reg};
use crate::{MulticoreError, Result};
use std::collections::BTreeMap;

/// An assembled program (shared by all cores — SPMD execution).
#[derive(Debug, Clone, PartialEq)]
pub struct Program {
    instrs: Vec<Instr>,
}

impl Program {
    /// Instruction at `pc`.
    pub fn fetch(&self, pc: usize) -> Option<Instr> {
        self.instrs.get(pc).copied()
    }

    /// Program length in instructions.
    pub fn len(&self) -> usize {
        self.instrs.len()
    }

    /// True when the program has no instructions.
    pub fn is_empty(&self) -> bool {
        self.instrs.is_empty()
    }

    /// All instructions (for inspection/disassembly).
    pub fn instructions(&self) -> &[Instr] {
        &self.instrs
    }
}

/// Builder assembling a [`Program`] with symbolic labels.
///
/// # Example
///
/// ```
/// use wbsn_multicore::program::ProgramBuilder;
/// use wbsn_multicore::isa::Reg;
///
/// let r0 = Reg::r(0);
/// let r1 = Reg::r(1);
/// let mut b = ProgramBuilder::new();
/// b.movi(r0, 3).movi(r1, 0);
/// b.label("loop");
/// b.addi(r1, r1, 1).addi(r0, r0, -1);
/// b.bne_label(r0, Reg::r(15), "loop"); // r15 is conventionally zero
/// b.halt();
/// let p = b.build().unwrap();
/// assert_eq!(p.len(), 6);
/// ```
#[derive(Debug, Default)]
pub struct ProgramBuilder {
    instrs: Vec<Instr>,
    labels: BTreeMap<String, usize>,
    /// (instruction index, label) pairs awaiting resolution.
    fixups: Vec<(usize, String)>,
}

impl ProgramBuilder {
    /// Empty builder.
    pub fn new() -> Self {
        Self::default()
    }

    /// Current instruction index (address of the next emitted
    /// instruction).
    pub fn here(&self) -> usize {
        self.instrs.len()
    }

    /// Defines a label at the current position.
    ///
    /// # Panics
    ///
    /// Panics when the label was already defined (programming error in
    /// the kernel emitter).
    pub fn label(&mut self, name: &str) -> &mut Self {
        let prev = self.labels.insert(name.to_string(), self.here());
        assert!(prev.is_none(), "label {name} defined twice");
        self
    }

    /// Emits a raw instruction.
    pub fn emit(&mut self, i: Instr) -> &mut Self {
        self.instrs.push(i);
        self
    }

    /// `rd ← imm`.
    pub fn movi(&mut self, rd: Reg, imm: i32) -> &mut Self {
        self.emit(Instr::Movi(rd, imm))
    }
    /// `rd ← ra + rb`.
    pub fn add(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.emit(Instr::Add(rd, ra, rb))
    }
    /// `rd ← ra − rb`.
    pub fn sub(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.emit(Instr::Sub(rd, ra, rb))
    }
    /// `rd ← ra · rb`.
    pub fn mul(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.emit(Instr::Mul(rd, ra, rb))
    }
    /// `rd ← min(ra, rb)`.
    pub fn min(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.emit(Instr::Min(rd, ra, rb))
    }
    /// `rd ← max(ra, rb)`.
    pub fn max(&mut self, rd: Reg, ra: Reg, rb: Reg) -> &mut Self {
        self.emit(Instr::Max(rd, ra, rb))
    }
    /// `rd ← ra + imm`.
    pub fn addi(&mut self, rd: Reg, ra: Reg, imm: i32) -> &mut Self {
        self.emit(Instr::Addi(rd, ra, imm))
    }
    /// `rd ← ra << sh`.
    pub fn slli(&mut self, rd: Reg, ra: Reg, sh: u8) -> &mut Self {
        self.emit(Instr::Slli(rd, ra, sh))
    }
    /// `rd ← ra >> sh` (arithmetic).
    pub fn srai(&mut self, rd: Reg, ra: Reg, sh: u8) -> &mut Self {
        self.emit(Instr::Srai(rd, ra, sh))
    }
    /// `rd ← dmem[ra + off]`.
    pub fn ld(&mut self, rd: Reg, ra: Reg, off: i32) -> &mut Self {
        self.emit(Instr::Ld(rd, ra, off))
    }
    /// `dmem[ra + off] ← rs`.
    pub fn st(&mut self, rs: Reg, ra: Reg, off: i32) -> &mut Self {
        self.emit(Instr::St(rs, ra, off))
    }
    /// `rd ← core id`.
    pub fn core_id(&mut self, rd: Reg) -> &mut Self {
        self.emit(Instr::CoreId(rd))
    }
    /// Synchronization barrier.
    pub fn bar(&mut self, id: u16) -> &mut Self {
        self.emit(Instr::Bar(id))
    }
    /// Halt this core.
    pub fn halt(&mut self) -> &mut Self {
        self.emit(Instr::Halt)
    }

    /// Branch to a label if `ra == rb`.
    pub fn beq_label(&mut self, ra: Reg, rb: Reg, label: &str) -> &mut Self {
        self.branch_label(Cond::Eq, ra, rb, label)
    }
    /// Branch to a label if `ra != rb`.
    pub fn bne_label(&mut self, ra: Reg, rb: Reg, label: &str) -> &mut Self {
        self.branch_label(Cond::Ne, ra, rb, label)
    }
    /// Branch to a label if `ra < rb`.
    pub fn blt_label(&mut self, ra: Reg, rb: Reg, label: &str) -> &mut Self {
        self.branch_label(Cond::Lt, ra, rb, label)
    }
    /// Branch to a label if `ra >= rb`.
    pub fn bge_label(&mut self, ra: Reg, rb: Reg, label: &str) -> &mut Self {
        self.branch_label(Cond::Ge, ra, rb, label)
    }

    fn branch_label(&mut self, c: Cond, ra: Reg, rb: Reg, label: &str) -> &mut Self {
        self.fixups.push((self.here(), label.to_string()));
        self.emit(Instr::Branch(c, ra, rb, usize::MAX))
    }

    /// Unconditional jump to a label.
    pub fn jump_label(&mut self, label: &str) -> &mut Self {
        self.fixups.push((self.here(), label.to_string()));
        self.emit(Instr::Jump(usize::MAX))
    }

    /// Resolves labels and produces the program.
    ///
    /// # Errors
    ///
    /// Fails when any referenced label is undefined.
    pub fn build(mut self) -> Result<Program> {
        for (idx, label) in &self.fixups {
            let Some(&target) = self.labels.get(label) else {
                return Err(MulticoreError::BadLabel {
                    label: label.clone(),
                });
            };
            match &mut self.instrs[*idx] {
                Instr::Branch(_, _, _, t) | Instr::Jump(t) => *t = target,
                other => unreachable!("fixup on non-branch {other:?}"),
            }
        }
        Ok(Program {
            instrs: self.instrs,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn labels_resolve_forward_and_backward() {
        let mut b = ProgramBuilder::new();
        let r0 = Reg::r(0);
        b.label("start");
        b.movi(r0, 1);
        b.jump_label("end");
        b.movi(r0, 2); // skipped
        b.label("end");
        b.bne_label(r0, r0, "start"); // never taken but resolves backward
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.fetch(1), Some(Instr::Jump(3)));
        match p.fetch(3) {
            Some(Instr::Branch(_, _, _, 0)) => {}
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn undefined_label_is_an_error() {
        let mut b = ProgramBuilder::new();
        b.jump_label("nowhere");
        assert!(matches!(b.build(), Err(MulticoreError::BadLabel { .. })));
    }

    #[test]
    #[should_panic(expected = "defined twice")]
    fn duplicate_label_panics() {
        let mut b = ProgramBuilder::new();
        b.label("x");
        b.halt();
        b.label("x");
    }

    #[test]
    fn fetch_past_end_is_none() {
        let mut b = ProgramBuilder::new();
        b.halt();
        let p = b.build().unwrap();
        assert_eq!(p.len(), 1);
        assert!(p.fetch(1).is_none());
        assert!(!p.is_empty());
    }
}
