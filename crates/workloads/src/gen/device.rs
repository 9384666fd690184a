//! Helpers for moving host inputs into simulated DRAM and reading
//! results back.

use super::graph::Csr;
use mosaic_mem::Addr;
use mosaic_sim::Machine;

/// A CSR pattern resident in simulated DRAM.
#[derive(Debug, Clone, Copy)]
pub struct DevCsr {
    /// Number of rows.
    pub n: u32,
    /// `n + 1` row offsets.
    pub row_ptr: Addr,
    /// Column indices.
    pub col: Addr,
}

/// Upload a CSR pattern.
pub fn upload_csr(m: &mut Machine, g: &Csr) -> DevCsr {
    DevCsr {
        n: g.n,
        row_ptr: m.dram_alloc_init(&g.row_ptr),
        col: m.dram_alloc_init(&g.col),
    }
}

/// Upload an `f32` slice (bit-cast to words).
pub fn upload_f32(m: &mut Machine, data: &[f32]) -> Addr {
    let words: Vec<u32> = data.iter().map(|v| v.to_bits()).collect();
    m.dram_alloc_init(&words)
}

/// Read back `len` `f32`s.
pub fn read_f32_slice(m: &Machine, addr: Addr, len: usize) -> Vec<f32> {
    m.peek_slice(addr, len)
        .into_iter()
        .map(f32::from_bits)
        .collect()
}

/// Maximum relative error between two f32 vectors (for tolerant
/// verification of reduction-order-sensitive results).
#[expect(
    clippy::float_arithmetic,
    reason = "order: per-element errors folded with max, which does not depend on order"
)]
pub fn max_rel_error(a: &[f32], b: &[f32]) -> f32 {
    assert_eq!(a.len(), b.len());
    a.iter()
        .zip(b)
        .map(|(&x, &y)| {
            let denom = x.abs().max(y.abs()).max(1e-12);
            (x - y).abs() / denom
        })
        .fold(0.0, f32::max)
}

#[cfg(test)]
mod tests {
    use super::*;
    use mosaic_sim::MachineConfig;

    #[test]
    fn csr_roundtrip() {
        let g = Csr::from_edges(3, vec![(0, 1), (2, 0), (2, 1)]);
        let mut m = Machine::new(MachineConfig::small(2, 1));
        let d = upload_csr(&mut m, &g);
        assert_eq!(m.peek_slice(d.row_ptr, 4), g.row_ptr);
        assert_eq!(m.peek_slice(d.col, 3), g.col);
    }

    #[test]
    fn f32_roundtrip() {
        let mut m = Machine::new(MachineConfig::small(2, 1));
        let data = [1.5f32, -2.25, 0.0];
        let a = upload_f32(&mut m, &data);
        assert_eq!(read_f32_slice(&m, a, 3), data);
    }

    #[test]
    fn rel_error_detects_mismatch() {
        assert_eq!(max_rel_error(&[1.0, 2.0], &[1.0, 2.0]), 0.0);
        assert!(max_rel_error(&[1.0], &[1.1]) > 0.05);
    }
}
