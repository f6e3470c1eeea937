//! The paper bins' fixed point as a committed file.
//!
//! Each deterministic bin runs at `--epochs 2 --scale 0.1` and must
//! print exactly what `goldens/<bin>.txt` holds. Pool widths and kernel
//! variants are inherited from the environment, so running the suite
//! under `LINALG_NUM_THREADS` or `LINALG_FORCE_KERNEL` holds every such
//! configuration to the same bytes. `fig6` and ablation rows 15–18
//! print wall-clock timings and are not compared.
//!
//! A change that moves a bin's output on purpose regenerates its golden
//! in the same diff:
//!
//! ```text
//! cargo run --release -p bench --bin table2 -- --epochs 2 --scale 0.1 \
//!     > crates/bench/goldens/table2.txt
//! ```
//!
//! (for `ablation`, keep only the first 14 lines).

use std::process::Command;

/// Lines of `ablation`'s output that are deterministic (rows 15–18 are
/// timings).
const ABLATION_DETERMINISTIC_LINES: usize = 14;

fn check(bin: &str, exe: &str, lines: Option<usize>) {
    let out = Command::new(exe)
        .args(["--epochs", "2", "--scale", "0.1"])
        .output()
        .unwrap_or_else(|e| panic!("{bin} did not start: {e}"));
    assert!(
        out.status.success(),
        "{bin} failed: {}",
        String::from_utf8_lossy(&out.stderr)
    );
    let stdout = String::from_utf8(out.stdout).expect("bins print UTF-8");
    let actual: String = match lines {
        Some(n) => stdout.split_inclusive('\n').take(n).collect(),
        None => stdout,
    };
    let path = format!("{}/goldens/{bin}.txt", env!("CARGO_MANIFEST_DIR"));
    let golden = std::fs::read_to_string(&path).unwrap_or_else(|e| panic!("{path}: {e}"));
    if actual != golden {
        let line = actual
            .lines()
            .zip(golden.lines())
            .position(|(a, g)| a != g)
            .map_or_else(|| "a line count".to_string(), |i| format!("line {}", i + 1));
        panic!("{bin} drifted from {path} at {line}:\n--- printed\n{actual}\n--- golden\n{golden}");
    }
}

macro_rules! golden {
    ($($name:ident),+ $(,)?) => {$(
        #[test]
        fn $name() {
            check(stringify!($name), env!(concat!("CARGO_BIN_EXE_", stringify!($name))), None);
        }
    )+};
}

golden!(table1, table2, table3, table4, fig4, fig5);

#[test]
fn ablation() {
    check(
        "ablation",
        env!("CARGO_BIN_EXE_ablation"),
        Some(ABLATION_DETERMINISTIC_LINES),
    );
}
