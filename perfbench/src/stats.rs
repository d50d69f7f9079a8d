//! The benchmark's own arithmetic: medians, the tail-percentile rule,
//! span self time and failure counting. Kept free of I/O so the
//! self-tests below pin every rule the reported numbers depend on.

use cfaopc_trace::SpanStat;

/// Median of `values` (mean of the middle two for an even count);
/// `None` when empty.
pub fn median(values: &[f64]) -> Option<f64> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    Some(if n % 2 == 1 {
        v[n / 2]
    } else {
        0.5 * (v[n / 2 - 1] + v[n / 2])
    })
}

/// A tail percentile and the evidence behind it.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Tail {
    /// The sample at the chosen rank.
    pub value: f64,
    /// The percentile that rank represents (`100 · rank / n`).
    pub percentile: f64,
    /// Samples strictly beyond the chosen rank.
    pub beyond: usize,
    /// Sample count.
    pub samples: usize,
}

/// Samples that must lie beyond a reported tail percentile.
pub const TAIL_SUPPORT: usize = 10;

/// The tail rule: report p90 (nearest rank) when at least
/// [`TAIL_SUPPORT`] samples lie beyond it; otherwise the highest
/// percentile that still has that many beyond it; never a rank below
/// the upper median, so the tail is never below the median. With fewer
/// than about `2 · TAIL_SUPPORT` samples that floor wins and the result
/// says how many samples lie beyond it.
pub fn tail(values: &[f64]) -> Option<Tail> {
    if values.is_empty() {
        return None;
    }
    let mut v = values.to_vec();
    v.sort_by(f64::total_cmp);
    let n = v.len();
    let p90_rank = (9 * n).div_ceil(10);
    let median_rank = n / 2 + 1;
    let supported = n.saturating_sub(TAIL_SUPPORT);
    let rank = p90_rank.min(supported).max(median_rank);
    Some(Tail {
        value: v[rank - 1],
        percentile: 100.0 * rank as f64 / n as f64,
        beyond: n - rank,
        samples: n,
    })
}

/// How one unit of work (a case, a chip or a job) ended.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum UnitStatus {
    /// Finished and passed its correctness check.
    Ok,
    /// The program returned an error (or a `failed` line).
    Errored,
    /// The daemon refused the job.
    Rejected,
    /// The job was cancelled (timeout, shutdown, disconnect).
    Cancelled,
    /// Finished, but the output failed its correctness check.
    CheckFailed,
}

/// `(attempted, failed)`: every status but [`UnitStatus::Ok`] counts as
/// failed.
pub fn count_failed(statuses: &[UnitStatus]) -> (usize, usize) {
    let failed = statuses.iter().filter(|s| **s != UnitStatus::Ok).count();
    (statuses.len(), failed)
}

/// `failed / attempted`, or 1 when nothing was attempted (a run that did
/// no work failed).
pub fn failed_frac(statuses: &[UnitStatus]) -> f64 {
    match count_failed(statuses) {
        (0, _) => 1.0,
        (attempted, failed) => failed as f64 / attempted as f64,
    }
}

/// Per-name span totals from a preorder snapshot: `(name, calls,
/// total_ns, self_ns)`, where self time is a node's total minus its
/// direct children's totals, summed over every node with that name.
pub fn span_self_times(snapshot: &[SpanStat]) -> Vec<(&'static str, u64, u64, u64)> {
    let mut out: Vec<(&'static str, u64, u64, u64)> = Vec::new();
    for (i, node) in snapshot.iter().enumerate() {
        let children: u64 = snapshot[i + 1..]
            .iter()
            .take_while(|s| s.depth > node.depth)
            .filter(|s| s.depth == node.depth + 1)
            .map(|s| s.total_ns)
            .sum();
        let self_ns = node.total_ns.saturating_sub(children);
        match out.iter_mut().find(|(name, ..)| *name == node.name) {
            Some(row) => {
                row.1 += node.calls;
                row.2 += node.total_ns;
                row.3 += self_ns;
            }
            None => out.push((node.name, node.calls, node.total_ns, self_ns)),
        }
    }
    out
}

/// `(calls, total_ns)` of the `name` nodes below every `ancestor` node:
/// its direct children only when `direct`, else at any depth.
pub fn nested(snapshot: &[SpanStat], ancestor: &str, name: &str, direct: bool) -> (u64, u64) {
    let (mut calls, mut total) = (0, 0);
    for (i, node) in snapshot.iter().enumerate() {
        if node.name != ancestor {
            continue;
        }
        for s in snapshot[i + 1..]
            .iter()
            .take_while(|s| s.depth > node.depth)
        {
            if s.name == name && (!direct || s.depth == node.depth + 1) {
                calls += s.calls;
                total += s.total_ns;
            }
        }
    }
    (calls, total)
}

#[cfg(test)]
mod tests {
    use super::*;

    fn stat(name: &'static str, depth: usize, calls: u64, total_ns: u64) -> SpanStat {
        SpanStat {
            name,
            depth,
            calls,
            total_ns,
        }
    }

    #[test]
    fn median_of_odd_even_and_empty() {
        assert_eq!(median(&[3.0, 1.0, 2.0]), Some(2.0));
        assert_eq!(median(&[4.0, 1.0, 3.0, 2.0]), Some(2.5));
        assert_eq!(median(&[]), None);
    }

    #[test]
    fn tail_is_p90_once_ten_samples_lie_beyond_it() {
        let v: Vec<f64> = (1..=100).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 90.0);
        assert_eq!(t.percentile, 90.0);
        assert_eq!(t.beyond, 10);
        let v: Vec<f64> = (1..=200).rev().map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!((t.value, t.beyond), (180.0, 20));
    }

    #[test]
    fn tail_backs_off_to_keep_ten_samples_beyond() {
        let v: Vec<f64> = (1..=50).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 40.0);
        assert_eq!(t.percentile, 80.0);
        assert_eq!(t.beyond, TAIL_SUPPORT);
    }

    #[test]
    fn tail_never_drops_below_the_median() {
        let v: Vec<f64> = (1..=12).map(f64::from).collect();
        let t = tail(&v).unwrap();
        assert_eq!(t.value, 7.0);
        assert_eq!(t.beyond, 5);
        assert!(t.value >= median(&v).unwrap());
        let t = tail(&[2.0, 1.0]).unwrap();
        assert_eq!((t.value, t.percentile), (2.0, 100.0));
        let t = tail(&[7.0]).unwrap();
        assert_eq!((t.value, t.beyond, t.samples), (7.0, 0, 1));
        assert!(tail(&[]).is_none());
    }

    #[test]
    fn failed_counts_every_non_ok_status() {
        use UnitStatus::*;
        let statuses = [Ok, Rejected, Ok, Cancelled, Errored, CheckFailed, Ok, Ok];
        assert_eq!(count_failed(&statuses), (8, 4));
        assert_eq!(failed_frac(&statuses), 0.5);
        assert_eq!(failed_frac(&[Ok, Ok]), 0.0);
        assert_eq!(failed_frac(&[Rejected]), 1.0);
        assert_eq!(failed_frac(&[Cancelled, Ok]), 0.5);
        assert_eq!(failed_frac(&[]), 1.0, "no work attempted is a failure");
    }

    #[test]
    fn self_time_subtracts_direct_children_only() {
        // circleopt(100) > pixel(40) > lg(30); circleopt > lg(50);
        // a second root pixel(20) > lg(15).
        let snap = [
            stat("core.circleopt", 0, 1, 100),
            stat("ilt.pixel", 1, 1, 40),
            stat("litho.lg", 2, 4, 30),
            stat("litho.lg", 1, 6, 50),
            stat("ilt.pixel", 0, 3, 20),
            stat("litho.lg", 1, 9, 15),
        ];
        let rows = span_self_times(&snap);
        let row = |n: &str| *rows.iter().find(|r| r.0 == n).unwrap();
        assert_eq!(row("core.circleopt"), ("core.circleopt", 1, 100, 10));
        assert_eq!(row("ilt.pixel"), ("ilt.pixel", 4, 60, 15));
        assert_eq!(row("litho.lg"), ("litho.lg", 19, 95, 95));
        // Self times telescope to the root totals.
        let self_sum: u64 = rows.iter().map(|r| r.3).sum();
        assert_eq!(self_sum, 120);
        assert_eq!(nested(&snap, "ilt.pixel", "litho.lg", true), (13, 45));
        assert_eq!(nested(&snap, "core.circleopt", "litho.lg", false), (10, 80));
        assert_eq!(nested(&snap, "core.circleopt", "litho.lg", true), (6, 50));
        assert_eq!(nested(&snap, "core.circleopt", "ilt.pixel", true), (1, 40));
    }

    #[test]
    fn self_time_never_goes_negative() {
        // Children measured on a clock that slightly overran the parent.
        let snap = [stat("a", 0, 1, 10), stat("b", 1, 1, 11)];
        assert_eq!(span_self_times(&snap)[0].3, 0);
    }
}
