//! Sequence bucketing (paper §4.1.3, Eq. 15–16).
//!
//! The planner's MILP has one assignment variable per (bucket, group) pair,
//! so the number of distinct sequence lengths must be compressed. The paper
//! buckets sequences, representing each by the bucket's *upper* length
//! limit (so estimates err on the safe side), and chooses bucket boundaries
//! by a dynamic program minimizing the total token deviation
//! `Σ_q Σ_k (ŝ_q − s_k)` — far more accurate on long-tailed data than
//! fixed-width bucketing (ablated in Fig. 7 and Table 4).

use flexsp_data::Sequence;
use flexsp_telemetry as tel;

/// A bucket of sequences represented by a unified upper length.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Bucket {
    /// Upper length limit ŝ_q: every member satisfies `len ≤ upper`.
    pub upper: u64,
    /// Member sequences (ascending by length).
    pub seqs: Vec<Sequence>,
}

impl Bucket {
    /// Number of member sequences (b̂_q in the paper).
    pub fn count(&self) -> usize {
        self.seqs.len()
    }

    /// Token error contributed by this bucket: `Σ (upper − len)`.
    pub fn token_error(&self) -> u64 {
        self.seqs.iter().map(|s| self.upper - s.len).sum()
    }

    /// Actual tokens in the bucket.
    pub fn actual_tokens(&self) -> u64 {
        self.seqs.iter().map(|s| s.len).sum()
    }
}

/// Total token error of a bucketing: `Σ_q Σ_k (ŝ_q − s_k)` (Eq. 15).
pub fn total_token_error(buckets: &[Bucket]) -> u64 {
    buckets.iter().map(Bucket::token_error).sum()
}

/// Relative token estimation bias: error tokens / actual tokens
/// (paper Table 4's "token error").
pub fn token_error_ratio(buckets: &[Bucket]) -> f64 {
    let actual: u64 = buckets.iter().map(Bucket::actual_tokens).sum();
    if actual == 0 {
        return 0.0;
    }
    total_token_error(buckets) as f64 / actual as f64
}

/// Optimal bucketing by dynamic programming (Eq. 16): splits the sorted
/// lengths into at most `q` buckets minimizing total token deviation.
///
/// Runs in `O(K²·Q)` with prefix sums; `K = 512`, `Q = 16` (the paper's
/// defaults) is ≈ 4M transitions.
///
/// Returns fewer than `q` buckets when sequences have fewer distinct
/// lengths. Buckets are ascending; empty input yields no buckets.
///
/// # Panics
///
/// Panics if `q == 0`.
///
/// # Example
///
/// ```
/// use flexsp_core::bucketing::{bucket_dp, total_token_error};
/// use flexsp_data::Sequence;
/// let seqs: Vec<Sequence> = [10u64, 11, 12, 500, 510, 520]
///     .iter().enumerate().map(|(i, &l)| Sequence::new(i as u64, l)).collect();
/// let buckets = bucket_dp(&seqs, 2);
/// // The DP separates the two clusters instead of splitting mid-cluster.
/// assert_eq!(buckets.len(), 2);
/// assert_eq!(buckets[0].upper, 12);
/// assert_eq!(buckets[1].upper, 520);
/// assert_eq!(total_token_error(&buckets), (12-10) + (12-11) + (520-500) + (520-510));
/// ```
pub fn bucket_dp(seqs: &[Sequence], q: usize) -> Vec<Bucket> {
    assert!(q > 0, "need at least one bucket");
    if seqs.is_empty() {
        return Vec::new();
    }
    let _span = tel::span!(tel::Category::Solver, "plan.bucket_dp", "seqs" => seqs.len() as u64);
    let mut sorted = seqs.to_vec();
    sorted.sort_by_key(|s| s.len);

    // Bucket boundaries only ever fall between *distinct* lengths, so run
    // the DP over distinct values with multiplicities: O(D²·Q) instead of
    // O(K²·Q), which keeps large batches (Fig. 8 scales K with N) cheap.
    let mut distinct: Vec<(u64, u64, usize)> = Vec::new(); // (len, count, end idx)
    for (i, s) in sorted.iter().enumerate() {
        match distinct.last_mut() {
            Some((len, count, end)) if *len == s.len => {
                *count += 1;
                *end = i + 1;
            }
            _ => distinct.push((s.len, 1, i + 1)),
        }
    }
    let d = distinct.len();
    let q = q.min(d);

    // Weighted prefix sums over distinct values.
    let mut pc = vec![0u64; d + 1]; // counts
    let mut ps = vec![0u64; d + 1]; // count·len
    for (i, &(len, count, _)) in distinct.iter().enumerate() {
        pc[i + 1] = pc[i] + count;
        ps[i + 1] = ps[i] + count * len;
    }
    // cost(j, i): one bucket over distinct[j..i] represented by its top
    // value: Σ count·(top − len).
    let cost =
        |j: usize, i: usize| -> u64 { (pc[i] - pc[j]) * distinct[i - 1].0 - (ps[i] - ps[j]) };

    // err[b·(d+1) + i]: min error bucketing the first i distinct values
    // into b buckets (Eq. 16). Rows are b-major, so the inner scan over j
    // reads row b − 1 contiguously.
    const INF: u64 = u64::MAX / 2;
    let row = d + 1;
    let mut err = vec![INF; (q + 1) * row];
    let mut from = vec![0usize; (q + 1) * row];
    err[0] = 0;
    for b in 1..=q {
        let (prev, cur) = err.split_at_mut(b * row);
        let prev = &prev[(b - 1) * row..];
        // Fewer than b values cannot fill b buckets: those cells keep INF.
        for i in b..=d {
            let (mut best, mut arg) = (INF, 0);
            for (j, &e) in (b - 1..i).zip(&prev[b - 1..i]) {
                if e == INF {
                    continue;
                }
                let c = e + cost(j, i);
                if c < best {
                    best = c;
                    arg = j;
                }
            }
            cur[i] = best;
            from[b * row + i] = arg;
        }
    }

    // Using exactly q buckets is never worse than fewer; reconstruct at q.
    let mut bounds = Vec::with_capacity(q);
    let (mut i, mut b) = (d, q);
    while b > 0 {
        let j = from[b * row + i];
        bounds.push((j, i));
        i = j;
        b -= 1;
    }
    bounds.reverse();
    bounds
        .into_iter()
        .filter(|(j, i)| i > j)
        .map(|(j, i)| {
            let lo = if j == 0 { 0 } else { distinct[j - 1].2 };
            let hi = distinct[i - 1].2;
            Bucket {
                upper: distinct[i - 1].0,
                seqs: sorted[lo..hi].to_vec(),
            }
        })
        .collect()
}

/// Naive fixed-width bucketing (the ablation baseline of §4.1.3): buckets
/// with upper limits at multiples of `interval` (e.g. 2K → 0–2K, 2–4K, …).
///
/// # Panics
///
/// Panics if `interval == 0`.
pub fn bucket_fixed_interval(seqs: &[Sequence], interval: u64) -> Vec<Bucket> {
    assert!(interval > 0, "interval must be positive");
    if seqs.is_empty() {
        return Vec::new();
    }
    let mut sorted = seqs.to_vec();
    sorted.sort_by_key(|s| s.len);
    let mut buckets: Vec<Bucket> = Vec::new();
    for s in sorted {
        let upper = s.len.div_ceil(interval).max(1) * interval;
        match buckets.last_mut() {
            Some(b) if b.upper == upper => b.seqs.push(s),
            _ => buckets.push(Bucket {
                upper,
                seqs: vec![s],
            }),
        }
    }
    buckets
}

/// Degenerate bucketing: one bucket per distinct length (the "no
/// bucketing" ablation — the MILP then has one variable per length).
pub fn bucket_exact(seqs: &[Sequence]) -> Vec<Bucket> {
    if seqs.is_empty() {
        return Vec::new();
    }
    let mut sorted = seqs.to_vec();
    sorted.sort_by_key(|s| s.len);
    let mut buckets: Vec<Bucket> = Vec::new();
    for s in sorted {
        match buckets.last_mut() {
            Some(b) if b.upper == s.len => b.seqs.push(s),
            _ => buckets.push(Bucket {
                upper: s.len,
                seqs: vec![s],
            }),
        }
    }
    buckets
}

#[cfg(test)]
mod tests {
    use super::*;

    fn seqs(lens: &[u64]) -> Vec<Sequence> {
        lens.iter()
            .enumerate()
            .map(|(i, &l)| Sequence::new(i as u64, l))
            .collect()
    }

    /// Brute-force optimal bucketing error for small inputs.
    fn brute_force_error(lens: &[u64], q: usize) -> u64 {
        let mut sorted = lens.to_vec();
        sorted.sort_unstable();
        let k = sorted.len();
        let mut best = u64::MAX;
        // Enumerate all ways to place q-1 cut points among k-1 gaps.
        fn rec(sorted: &[u64], cuts: &mut Vec<usize>, start: usize, left: usize, best: &mut u64) {
            if left == 0 {
                let mut err = 0u64;
                let mut prev = 0usize;
                let mut bounds: Vec<usize> = cuts.clone();
                bounds.push(sorted.len());
                for &b in &bounds {
                    if b > prev {
                        let upper = sorted[b - 1];
                        err += sorted[prev..b].iter().map(|&s| upper - s).sum::<u64>();
                    }
                    prev = b;
                }
                *best = (*best).min(err);
                return;
            }
            for c in start..sorted.len() {
                cuts.push(c);
                rec(sorted, cuts, c + 1, left - 1, best);
                cuts.pop();
            }
        }
        rec(&sorted, &mut Vec::new(), 1, q.min(k) - 1, &mut best);
        if q >= k {
            best = 0;
        }
        best
    }

    #[test]
    fn dp_matches_brute_force() {
        let cases: Vec<(Vec<u64>, usize)> = vec![
            (vec![1, 2, 3, 100, 101, 102], 2),
            (vec![5, 5, 5, 5], 2),
            (vec![1, 10, 100, 1000], 3),
            (vec![7, 3, 9, 1, 4, 6, 2], 3),
            (vec![1, 1, 2, 50, 51, 52, 900], 4),
        ];
        for (lens, q) in cases {
            let dp = total_token_error(&bucket_dp(&seqs(&lens), q));
            let bf = brute_force_error(&lens, q);
            assert_eq!(dp, bf, "lens {lens:?} q={q}");
        }
    }

    #[test]
    fn enough_buckets_means_zero_error() {
        let lens = vec![4u64, 8, 15, 16, 23, 42];
        let buckets = bucket_dp(&seqs(&lens), 6);
        assert_eq!(total_token_error(&buckets), 0);
    }

    #[test]
    fn error_decreases_with_more_buckets() {
        let lens: Vec<u64> = (1..=60).map(|i| (i * i) as u64).collect();
        let mut prev = u64::MAX;
        for q in [1usize, 2, 4, 8, 16, 32] {
            let e = total_token_error(&bucket_dp(&seqs(&lens), q));
            assert!(e <= prev, "q={q}: {e} > {prev}");
            prev = e;
        }
    }

    #[test]
    fn dp_beats_naive_on_long_tail() {
        // Lognormal-ish long tail: DP must have (weakly) lower error than
        // fixed 2K intervals with the same bucket count.
        let lens: Vec<u64> = (0..200)
            .map(|i| {
                let base = 200 + (i * 37) % 2000;
                if i % 19 == 0 {
                    base + 30_000 + i * 13
                } else {
                    base
                }
            })
            .collect();
        let naive = bucket_fixed_interval(&seqs(&lens), 2048);
        let dp = bucket_dp(&seqs(&lens), naive.len());
        assert!(
            total_token_error(&dp) <= total_token_error(&naive),
            "dp {} vs naive {}",
            total_token_error(&dp),
            total_token_error(&naive)
        );
    }

    #[test]
    fn buckets_partition_and_bound_members() {
        let lens: Vec<u64> = (0..100).map(|i| (i * 97) % 5000 + 1).collect();
        let input = seqs(&lens);
        let buckets = bucket_dp(&input, 8);
        let total: usize = buckets.iter().map(Bucket::count).sum();
        assert_eq!(total, input.len());
        for b in &buckets {
            assert!(b.seqs.iter().all(|s| s.len <= b.upper));
            assert_eq!(b.upper, b.seqs.iter().map(|s| s.len).max().unwrap());
        }
        // Ascending buckets with disjoint ranges.
        for w in buckets.windows(2) {
            assert!(w[0].upper < w[1].upper);
            assert!(w[0].seqs.iter().all(|s| s.len <= w[0].upper));
            assert!(w[1].seqs.iter().all(|s| s.len > w[0].upper));
        }
    }

    #[test]
    fn exact_bucketing_has_zero_error() {
        let lens = vec![3u64, 3, 7, 7, 7, 12];
        let buckets = bucket_exact(&seqs(&lens));
        assert_eq!(buckets.len(), 3);
        assert_eq!(total_token_error(&buckets), 0);
    }

    #[test]
    fn error_ratio_basics() {
        let buckets = bucket_fixed_interval(&seqs(&[1000, 1500]), 2048);
        // Both land in the ≤2048 bucket: error = 1048 + 548 over 2500.
        let ratio = token_error_ratio(&buckets);
        assert!((ratio - (1048.0 + 548.0) / 2500.0).abs() < 1e-12);
    }

    #[test]
    fn empty_input_yields_no_buckets() {
        assert!(bucket_dp(&[], 4).is_empty());
        assert!(bucket_fixed_interval(&[], 10).is_empty());
        assert!(bucket_exact(&[]).is_empty());
    }
}
