//! Ablation: ruche (express) links. The paper's OCN is a
//! mesh-with-ruching; this measures what the express links buy on the
//! Fig. 5-style hot-spot pattern and on an all-to-all pattern.

use crate::sweep::{Cell, CellResult, Outcome};
use crate::{Options, SanCell, Table};
use mosaic_sim::{Engine, Machine};
use std::fmt::Write as _;

const PATTERNS: [&str; 2] = ["hotspot", "a2a"];

/// Ruche-major (ruche factor, traffic pattern) cells.
pub(super) fn cells(_opts: &Options) -> Vec<Cell> {
    let mut cells = Vec::new();
    for ruche in [0u16, 2, 3, 4] {
        for pattern in PATTERNS {
            let hotspot = pattern == "hotspot";
            cells.push(Cell::new(
                format!("ruche-{ruche}"),
                pattern,
                move |mut mcfg| {
                    mcfg.ruche_x = ruche;
                    let machine = Machine::new(mcfg);
                    let map = machine.addr_map().clone();
                    let cores = machine.core_count();
                    let mut report = Engine::run(machine, move |core| {
                        let map = map.clone();
                        Box::new(move |api| {
                            if core == 0 && hotspot {
                                api.charge(1, 10_000);
                                return;
                            }
                            for i in 0..100u64 {
                                let target = if hotspot {
                                    0
                                } else {
                                    (core + i as usize * 7 + 1) % cores
                                };
                                let addr =
                                    map.spm_addr(target as u32, ((i * 4) % 1024) as u32 & !3);
                                api.load(addr);
                                api.charge(2, 2);
                            }
                        })
                    });
                    Outcome {
                        cycles: report.cycles,
                        instructions: report.instructions(),
                        verified: true,
                        sanitizer: SanCell::from_report(
                            report.machine.take_sanitizer_report().as_ref(),
                        ),
                        profile: report.machine.take_profile(),
                        ..Outcome::default()
                    }
                },
            ));
        }
    }
    cells
}

pub(super) fn render(opts: &Options, results: &[CellResult]) -> String {
    let mut table = Table::new(&["ruche", "hotspot cycles", "all-to-all cycles"]);
    for row in results.chunks(PATTERNS.len()) {
        table.row(vec![
            row[0].workload.trim_start_matches("ruche-").to_string(),
            format!("{}", row[0].out.cycles),
            format!("{}", row[1].out.cycles),
        ]);
    }
    let mut s = String::new();
    let _ = writeln!(s, "Ruche-factor ablation, {} cores", opts.cores());
    let _ = writeln!(s, "{table}");
    s
}
