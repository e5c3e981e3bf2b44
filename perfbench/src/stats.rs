//! Timing loops, order statistics and the process's peak memory.

use std::hint::black_box;
use std::time::Instant;

use crate::BenchResult;

/// The `q`-quantile of `values` by linear interpolation between order
/// statistics (Hyndman–Fan type 7, the rule `nfv_metrics` uses); 0 for no
/// values.
#[must_use]
pub(crate) fn percentile(values: &[f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    let mut sorted = values.to_vec();
    sorted.sort_by(f64::total_cmp);
    let rank = q.clamp(0.0, 1.0) * (sorted.len() - 1) as f64;
    let (lo, hi) = (rank.floor() as usize, rank.ceil() as usize);
    sorted[lo] + (sorted[hi] - sorted[lo]) * (rank - lo as f64)
}

/// The median of `values`; 0 for no values.
#[must_use]
pub(crate) fn median(values: &[f64]) -> f64 {
    percentile(values, 0.5)
}

/// Peak resident set size of this process (`VmHWM`), MiB.
///
/// # Errors
///
/// When `/proc/self/status` is unreadable or has no `VmHWM` line.
pub(crate) fn peak_rss_mib() -> BenchResult<f64> {
    let status = std::fs::read_to_string("/proc/self/status")?;
    let kib: f64 = status
        .lines()
        .find_map(|line| line.strip_prefix("VmHWM:"))
        .and_then(|rest| rest.trim().trim_end_matches("kB").trim().parse().ok())
        .ok_or("no VmHWM line in /proc/self/status")?;
    Ok(kib / 1024.0)
}

/// Calls `run` until `seconds` have passed and it ran at least
/// `min_runs` times, passing the call's index.
pub(crate) fn repeat_for<T>(
    seconds: f64,
    min_runs: usize,
    mut run: impl FnMut(usize) -> BenchResult<T>,
) -> BenchResult<Vec<T>> {
    let started = Instant::now();
    let mut results = Vec::new();
    while results.len() < min_runs || started.elapsed().as_secs_f64() < seconds {
        results.push(run(results.len())?);
    }
    Ok(results)
}

/// Runs `prepare` for at least a quarter second and 3 times, returning
/// the last result and each repetition's wall time: `setup_s` is their
/// median, so one slow first pass (cold caches, page faults) does not set
/// it.
pub(crate) fn repeated_setup<T>(
    mut prepare: impl FnMut() -> BenchResult<T>,
) -> BenchResult<(T, Vec<f64>)> {
    let started = Instant::now();
    let mut seconds = Vec::new();
    loop {
        let t = Instant::now();
        let result = prepare()?;
        seconds.push(t.elapsed().as_secs_f64());
        if seconds.len() >= 3 && started.elapsed().as_secs_f64() >= 0.25 {
            return Ok((result, seconds));
        }
    }
}

/// Seconds per call of `op`: calls are timed in batches of at least a
/// millisecond, so the clock read is amortized, for about `budget`
/// seconds; the median batch wins.
pub(crate) fn per_call_seconds(budget: f64, mut op: impl FnMut()) -> f64 {
    let mut batch = 1usize;
    loop {
        let started = Instant::now();
        for _ in 0..batch {
            op();
        }
        if started.elapsed().as_secs_f64() >= 1e-3 || batch >= 1 << 24 {
            break;
        }
        batch *= 2;
    }
    let started = Instant::now();
    let mut per_call = Vec::new();
    while per_call.len() < 3 || started.elapsed().as_secs_f64() < budget {
        let batch_start = Instant::now();
        for _ in 0..batch {
            op();
        }
        per_call.push(batch_start.elapsed().as_secs_f64() / batch as f64);
    }
    median(&per_call)
}

/// Seconds one `Instant::now()` read costs — the bias every per-call
/// timer in this benchmark carries.
pub(crate) fn clock_read_seconds() -> f64 {
    per_call_seconds(0.02, || {
        black_box(Instant::now());
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn percentile_interpolates_between_order_statistics() {
        let values = [4.0, 1.0, 3.0, 2.0];
        assert_eq!(percentile(&values, 0.0), 1.0);
        assert_eq!(percentile(&values, 1.0), 4.0);
        assert_eq!(median(&values), 2.5);
        assert!((percentile(&values, 0.95) - 3.85).abs() < 1e-12);
        assert_eq!(median(&[]), 0.0);
    }

    #[test]
    fn peak_rss_is_positive() {
        assert!(peak_rss_mib().unwrap() > 0.0);
    }
}
