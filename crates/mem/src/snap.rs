//! Little-endian byte helpers shared by the component checkpoint
//! serializers in this crate ([`crate::Scratchpad`], [`crate::Llc`],
//! [`crate::DramModel`]).
//!
//! The encoding is deliberately trivial — fixed-width little-endian
//! fields, no varints, no padding — because the checkpoint contract in
//! `mosaic-sim` byte-compares snapshots across runs (`--resume-from`
//! re-executes and compares at the image's boundary): two equal
//! component states must produce identical bytes, always. Snapshots are
//! write-only; nothing decodes them back into a component.

pub(crate) fn put_u8(out: &mut Vec<u8>, v: u8) {
    out.push(v);
}

pub(crate) fn put_u32(out: &mut Vec<u8>, v: u32) {
    out.extend_from_slice(&v.to_le_bytes());
}

pub(crate) fn put_u64(out: &mut Vec<u8>, v: u64) {
    out.extend_from_slice(&v.to_le_bytes());
}
