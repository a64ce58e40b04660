//! Host-speed calibration. The benchmark shares its host with other
//! work, and the host's speed drifts by tens of percent over seconds;
//! the drift slows cache-bound code such as the simulator, not pure
//! arithmetic. Every job is preceded by a fixed cache-bound loop, and
//! each job's host times are rescaled by how long that loop took around
//! it, so two runs taken minutes apart compare at the same host speed.

use std::cell::RefCell;
use std::time::Instant;

/// The calibration loop's time on the reference host speed, ns. Times
/// are reported as if every loop had taken this long.
pub const REFERENCE_NS: f64 = 800_000.0;

/// Calibration loops on each side of a job that its speed factor takes
/// the median of.
const WINDOW: usize = 5;

thread_local! {
    /// 256 KiB: bigger than L1, inside L2, like the simulator's hot set.
    static BUF: RefCell<Vec<u64>> = RefCell::new(vec![0; 32 * 1024]);
}

/// Runs the calibration loop once: random read-modify-writes over a
/// per-thread buffer. Returns its host time, ns.
pub fn calibrate() -> u64 {
    BUF.with_borrow_mut(|buf| {
        let t = Instant::now();
        let mask = buf.len() - 1;
        let mut x: u64 = 1;
        for i in 0..400_000u64 {
            x = x.wrapping_mul(6_364_136_223_846_793_005).wrapping_add(i);
            let k = (x >> 40) as usize & mask;
            buf[k] = buf[k].wrapping_add(x);
        }
        std::hint::black_box(&buf);
        u64::try_from(t.elapsed().as_nanos()).unwrap_or(u64::MAX)
    })
}

/// Speed factor of each job: [`REFERENCE_NS`] over the median
/// calibration time of the jobs next to it on its lane (by start time).
/// A factor below 1 means the host ran slower than the reference.
/// `jobs` holds `(lane, start ns, calibration ns)`.
pub fn factors(jobs: &[(usize, u64, u64)]) -> Vec<f64> {
    let mut f = vec![1.0; jobs.len()];
    let mut lanes: Vec<usize> = jobs.iter().map(|j| j.0).collect();
    lanes.sort_unstable();
    lanes.dedup();
    for lane in lanes {
        let mut idx: Vec<usize> = (0..jobs.len()).filter(|&i| jobs[i].0 == lane).collect();
        idx.sort_by_key(|&i| jobs[i].1);
        for (k, &i) in idx.iter().enumerate() {
            let lo = k.saturating_sub(WINDOW);
            let hi = (k + WINDOW + 1).min(idx.len());
            let mut window: Vec<u64> = idx[lo..hi].iter().map(|&j| jobs[j].2).collect();
            window.sort_unstable();
            f[i] = REFERENCE_NS / window[window.len() / 2].max(1) as f64;
        }
    }
    f
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn factors_follow_each_lane_and_ignore_one_outlier() {
        let ref_ns = REFERENCE_NS as u64;
        let mut jobs: Vec<(usize, u64, u64)> = (0..20).map(|t| (0, t, ref_ns)).collect();
        jobs.extend((0..20).map(|t| (1, t, 2 * ref_ns)));
        jobs[7].2 = 50 * ref_ns;
        let f = factors(&jobs);
        assert!(f[..20].iter().all(|&x| x == 1.0), "{f:?}");
        assert!(f[20..].iter().all(|&x| x == 0.5), "{f:?}");
    }
}
