//! Shared helpers for the ION experiment binaries and Criterion benches.

use workloads::ior::{
    ior_easy_1mb_fpp, ior_easy_1mb_shared, ior_easy_2kb_shared, ior_hard, ior_rnd4k,
};
use workloads::mdworkbench::MdWorkbench;
use workloads::Workload;

/// Scale factor for experiment runs, from `IONREPRO_SCALE` (default 0.1,
/// where 1.0 approximates the paper's operation counts; large values are
/// expensive because the analyzer clones per-operation DXT tables).
#[must_use]
pub fn experiment_scale() -> f64 {
    std::env::var("IONREPRO_SCALE")
        .ok()
        .and_then(|s| s.parse().ok())
        .unwrap_or(0.1)
}

/// The six Figure 2 workloads at a given scale.
#[must_use]
pub fn fig2_workloads(scale: f64) -> Vec<Box<dyn Workload>> {
    vec![
        Box::new(ior_easy_2kb_shared(scale)),
        Box::new(ior_easy_1mb_shared(scale)),
        Box::new(ior_easy_1mb_fpp(scale)),
        // ior-hard's paper-scale op count is 10× the others; keep the same
        // wall-clock budget.
        Box::new(ior_hard(scale / 10.0)),
        Box::new(ior_rnd4k(scale / 2.0)),
        Box::new(MdWorkbench::scaled(scale * 5.0)),
    ]
}

/// Truncate a string to one display line of at most `width` chars.
#[must_use]
pub fn one_line(text: &str, width: usize) -> String {
    let line = text.lines().next().unwrap_or("");
    if line.chars().count() <= width {
        line.to_owned()
    } else {
        let truncated: String = line.chars().take(width.saturating_sub(1)).collect();
        format!("{truncated}…")
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn fig2_set_has_six_workloads() {
        assert_eq!(fig2_workloads(0.01).len(), 6);
    }

    #[test]
    fn one_line_truncates() {
        assert_eq!(one_line("abc\ndef", 10), "abc");
        assert_eq!(one_line("abcdefghij", 5), "abcd…");
    }
}
