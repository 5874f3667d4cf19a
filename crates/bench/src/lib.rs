//! Shared helpers for the figure-regeneration binaries, and the
//! Figure 5 SNR-vs-CR sweep.
//!
//! Each binary in `src/bin` regenerates one figure or text claim of
//! the DAC'14 paper and prints the paper's value next to the measured
//! one. [`sweep`] is the SNR-vs-CR machinery behind `fig5_snr_vs_cr`.

// Every public item carries documentation; rustdoc runs with
// `-D warnings` in CI, so a gap fails the build.
#![forbid(unsafe_code)]
#![warn(missing_docs)]

pub mod sweep;

/// Prints a standard experiment header.
pub fn header(id: &str, what: &str, paper_expectation: &str) {
    println!("================================================================");
    println!("{id}: {what}");
    println!("paper: {paper_expectation}");
    println!("================================================================");
}

/// Formats a power in watts as a microwatt/milliwatt string.
pub fn fmt_power(w: f64) -> String {
    if w >= 1e-3 {
        format!("{:8.3} mW", w * 1e3)
    } else {
        format!("{:8.2} µW", w * 1e6)
    }
}

/// Renders a crude horizontal bar for terminal "plots".
pub fn bar(value: f64, max: f64, width: usize) -> String {
    let n = if max <= 0.0 {
        0
    } else {
        ((value / max) * width as f64).round() as usize
    };
    "#".repeat(n.min(width))
}

/// An ASCII scatter/line plot of (x, y) series — enough to see the
/// shape of Figure 5 in a terminal.
pub fn ascii_plot(series: &[(&str, &[(f64, f64)])], width: usize, height: usize) -> String {
    let all: Vec<(f64, f64)> = series.iter().flat_map(|(_, s)| s.iter().copied()).collect();
    if all.is_empty() {
        return String::new();
    }
    let (mut x0, mut x1) = (f64::INFINITY, f64::NEG_INFINITY);
    let (mut y0, mut y1) = (f64::INFINITY, f64::NEG_INFINITY);
    for &(x, y) in &all {
        x0 = x0.min(x);
        x1 = x1.max(x);
        y0 = y0.min(y);
        y1 = y1.max(y);
    }
    if (x1 - x0).abs() < 1e-12 {
        x1 = x0 + 1.0;
    }
    if (y1 - y0).abs() < 1e-12 {
        y1 = y0 + 1.0;
    }
    let mut grid = vec![vec![b' '; width]; height];
    let marks = [b'o', b'x', b'+', b'*'];
    for (si, (_, s)) in series.iter().enumerate() {
        for &(x, y) in s.iter() {
            let cx = (((x - x0) / (x1 - x0)) * (width - 1) as f64).round() as usize;
            let cy = (((y - y0) / (y1 - y0)) * (height - 1) as f64).round() as usize;
            grid[height - 1 - cy][cx] = marks[si % marks.len()];
        }
    }
    let mut out = String::new();
    out.push_str(&format!("{y1:8.1} ┐\n"));
    for row in grid {
        out.push_str("         │");
        out.push_str(core::str::from_utf8(&row).expect("ascii"));
        out.push('\n');
    }
    out.push_str(&format!(
        "{y0:8.1} └{}\n          {:<10.1}{:>width$.1}\n",
        "─".repeat(width),
        x0,
        x1,
        width = width - 10
    ));
    for (si, (name, _)) in series.iter().enumerate() {
        out.push_str(&format!(
            "          {} = {}\n",
            marks[si % marks.len()] as char,
            name
        ));
    }
    out
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn bar_scales() {
        assert_eq!(bar(5.0, 10.0, 10), "#####");
        assert_eq!(bar(0.0, 10.0, 10), "");
        assert_eq!(bar(20.0, 10.0, 10).len(), 10);
        assert_eq!(bar(1.0, 0.0, 10), "");
    }

    #[test]
    fn fmt_power_units() {
        assert!(fmt_power(2.5e-3).contains("mW"));
        assert!(fmt_power(200e-6).contains("µW"));
    }

    #[test]
    fn ascii_plot_renders() {
        let s1 = [(0.0, 0.0), (50.0, 10.0), (100.0, 20.0)];
        let s2 = [(0.0, 5.0), (100.0, 5.0)];
        let p = ascii_plot(&[("a", &s1), ("b", &s2)], 40, 10);
        assert!(p.contains('o'));
        assert!(p.contains('x'));
        assert!(p.lines().count() > 10);
    }
}
