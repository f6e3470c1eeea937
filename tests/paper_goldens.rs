//! The paper artifacts' fixed point, held in-process.
//!
//! Each deterministic `bench` artifact runs at `--epochs 2 --scale 0.1`
//! into a buffer that must equal `crates/bench/goldens/<name>.txt` byte
//! for byte. Pool widths and kernel variants come from the environment,
//! so running this suite under `LINALG_NUM_THREADS` or
//! `LINALG_FORCE_KERNEL` holds every such configuration to the same
//! bytes. `fig6` and ablation rows 15–18 print wall-clock timings:
//! `fig6` runs into a sink, and only the first 14 lines of `ablation`
//! are compared.
//!
//! A change that moves an artifact on purpose regenerates its golden in
//! the same diff:
//!
//! ```text
//! cargo run --release -p bench --bin table2 -- --epochs 2 --scale 0.1 \
//!     > crates/bench/goldens/table2.txt
//! ```
//!
//! (for `ablation`, keep only the first 14 lines), together with its
//! line in `crates/bench/goldens/epochs30.md5`: the md5 of the release
//! binary's output at `--epochs 30`, which CI checks with `md5sum -c`.

use bench::HarnessArgs;
use std::io;

const TINY: HarnessArgs = HarnessArgs {
    scale_mult: 0.1,
    epochs: 2,
    seed: 42,
};

/// Lines of `ablation`'s output that are deterministic (rows 15–18 are
/// timings).
const ABLATION_DETERMINISTIC_LINES: usize = 14;

fn check(
    name: &str,
    artifact: fn(&HarnessArgs, &mut Vec<u8>) -> io::Result<()>,
    lines: Option<usize>,
) {
    let mut printed = Vec::new();
    artifact(&TINY, &mut printed).unwrap_or_else(|e| panic!("{name}: {e}"));
    let printed = String::from_utf8(printed).expect("artifacts print UTF-8");
    let actual: String = match lines {
        Some(n) => printed.split_inclusive('\n').take(n).collect(),
        None => printed,
    };
    let path = format!(
        "{}/crates/bench/goldens/{name}.txt",
        env!("CARGO_MANIFEST_DIR")
    );
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .map_or_else(|| "a line count".to_string(), |i| format!("line {}", i + 1));
        panic!(
            "{name} drifted from {path} at {line}:\n--- printed\n{actual}\n--- golden\n{golden}"
        );
    }
}

macro_rules! golden {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), bench::$name, None);
        }
    )+};
}

golden!(table1, table2, table3, table4, fig4, fig5);

#[test]
fn ablation() {
    check(
        "ablation",
        bench::ablation,
        Some(ABLATION_DETERMINISTIC_LINES),
    );
}

#[test]
fn fig6_runs() {
    bench::fig6(&TINY, &mut io::sink()).expect("fig6");
}
