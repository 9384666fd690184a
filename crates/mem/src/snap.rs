//! Little-endian byte helpers shared by the component checkpoint
//! serializers in this crate ([`crate::Scratchpad`], [`crate::Llc`],
//! [`crate::DramModel`]).
//!
//! The encoding is deliberately trivial — fixed-width little-endian
//! fields, no varints, no padding — so two equal component states
//! produce identical bytes, always: `mosaic-sim` checkpoint images are
//! byte-identical from run to run. Snapshots are write-only; nothing
//! decodes them, and they remain only because the host benchmark times
//! the checkpoint writer that assembles them.

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
