//! Order statistics and process measurements shared by the workloads.

/// The `q`-quantile (nearest rank) of `values`; sorts in place. 0 for an
/// empty slice.
pub fn percentile(values: &mut [f64], q: f64) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let rank = (q * values.len() as f64).ceil() as usize;
    values[rank.clamp(1, values.len()) - 1]
}

/// Median (mean of the middle pair for an even count); sorts in place.
pub fn median(values: &mut [f64]) -> f64 {
    if values.is_empty() {
        return 0.0;
    }
    values.sort_by(f64::total_cmp);
    let n = values.len();
    if n % 2 == 1 {
        values[n / 2]
    } else {
        (values[n / 2 - 1] + values[n / 2]) / 2.0
    }
}

/// CPU time consumed so far by the calling thread, in seconds
/// (`CLOCK_THREAD_CPUTIME_ID`). Time the thread spends descheduled,
/// including time the hypervisor steals, is not counted.
pub fn thread_cpu_s() -> f64 {
    #[repr(C)]
    struct Timespec {
        sec: i64,
        nsec: i64,
    }
    extern "C" {
        fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
    }
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec { sec: 0, nsec: 0 };
    // SAFETY: `ts` is live, writable and laid out as the 64-bit Linux
    // `struct timespec` that clock_gettime(2) fills.
    let r = unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    assert_eq!(r, 0, "the thread CPU clock is always available on Linux");
    ts.sec as f64 + ts.nsec as f64 * 1e-9
}

/// What the nominal machine takes for one run of the reference kernel.
pub const REFERENCE_NOMINAL_S: f64 = 0.010;

/// Measured work between two runs of the reference kernel, at most.
const REFERENCE_INTERVAL_S: f64 = 0.15;

/// Scales measured CPU times to a nominal machine speed.
///
/// The speed of the VM the benchmark was developed on drifts by up to
/// 1.5x, within seconds and over minutes, and CPU time drifts with it:
/// the slow-down is not time the thread is descheduled, it is every
/// instruction taking longer. So a run also times a fixed reference
/// kernel, a sort and a B-tree churn with the memory and branch
/// behaviour of the scheduler code, in the same thread as the work,
/// after every `REFERENCE_INTERVAL_S` of it. The kernel's mean time
/// samples the machine's speed over the work evenly, so a calibrated
/// time, measured CPU time times `REFERENCE_NOMINAL_S` over that mean,
/// is the time the work takes on a machine where the kernel takes
/// `REFERENCE_NOMINAL_S`. `README.md` has the measurements.
pub struct Calibration {
    sorted: Vec<f64>,
    keys: Vec<f64>,
    /// Every reference time measured, in seconds of thread CPU.
    pub samples: Vec<f64>,
    work_since: f64,
}

impl Default for Calibration {
    fn default() -> Self {
        let mut z = 0x2545_f491_4f6c_dd1d_u64;
        let keys = (0..100_000)
            .map(|_| {
                z ^= z << 13;
                z ^= z >> 7;
                z ^= z << 17;
                (z >> 11) as f64
            })
            .collect();
        Self { sorted: vec![0.0; 100_000], keys, samples: Vec::new(), work_since: 0.0 }
    }
}

impl Calibration {
    /// Runs the reference kernel once and records its thread CPU time.
    pub fn measure(&mut self) {
        let t = thread_cpu_s();
        self.sorted.copy_from_slice(&self.keys);
        self.sorted.sort_unstable_by(f64::total_cmp);
        let mut tree = std::collections::BTreeMap::new();
        for (i, k) in self.keys[..50_000].iter().enumerate() {
            tree.insert(k.to_bits() % 25_000, i);
            if i % 3 == 0 {
                tree.remove(&(self.keys[i + 1].to_bits() % 25_000));
            }
        }
        std::hint::black_box((&self.sorted, tree.len()));
        self.samples.push(thread_cpu_s() - t);
        self.work_since = 0.0;
    }

    /// Counts `work` seconds of measured work, and runs the reference
    /// once enough work has passed since the last run.
    pub fn after_work(&mut self, work: f64) {
        self.work_since += work;
        if self.work_since >= REFERENCE_INTERVAL_S {
            self.measure();
        }
    }

    /// The factor that turns a measured CPU time of this run into a
    /// calibrated one: nominal over the mean reference time.
    pub fn scale(&self) -> f64 {
        REFERENCE_NOMINAL_S * self.samples.len() as f64 / self.samples.iter().sum::<f64>()
    }
}

/// Each invocation's median latency over a run's repetitions of the same
/// input, every repetition a list of latencies in invocation order. The
/// median of one invocation's own repetitions leaves out a slow stretch
/// of the machine that hit fewer than half of them. A repetition whose
/// length differs from the first one's (one the checks failed) is left
/// out.
pub fn per_invocation_median(reps: &[Vec<f64>]) -> Vec<f64> {
    let Some(first) = reps.first() else {
        return Vec::new();
    };
    let reps: Vec<&Vec<f64>> = reps.iter().filter(|r| r.len() == first.len()).collect();
    let mut column = Vec::with_capacity(reps.len());
    (0..first.len())
        .map(|i| {
            column.clear();
            column.extend(reps.iter().map(|r| r[i]));
            median(&mut column)
        })
        .collect()
}

#[repr(C)]
struct RUsage {
    utime: [i64; 2],
    stime: [i64; 2],
    maxrss_kb: i64,
    rest: [i64; 13],
}

extern "C" {
    fn wait4(pid: i32, status: *mut i32, options: i32, rusage: *mut RUsage) -> i32;
}

/// What `wait4` reports of a reaped child.
pub struct Reaped {
    pub exit: Result<(), String>,
    /// User plus system CPU time, in seconds.
    pub cpu_s: f64,
    pub peak_rss_mb: f64,
}

/// Reaps child `pid`, returning its exit verdict, CPU time and peak RSS.
pub fn wait_with_rusage(pid: u32) -> Reaped {
    let mut status = 0i32;
    let mut usage = RUsage { utime: [0; 2], stime: [0; 2], maxrss_kb: 0, rest: [0; 13] };
    loop {
        // SAFETY: `status` and `usage` are live, writable, and laid out as
        // the C `int` and 64-bit Linux `struct rusage` (4 timeval words,
        // then 14 longs from `ru_maxrss` on) that wait4(2) fills; `pid` is our unreaped child.
        let r = unsafe { wait4(pid as i32, &mut status, 0, &mut usage) };
        if r == pid as i32 {
            break;
        }
        let err = std::io::Error::last_os_error();
        if err.kind() != std::io::ErrorKind::Interrupted {
            return Reaped {
                exit: Err(format!("wait4 failed: {err}")),
                cpu_s: 0.0,
                peak_rss_mb: 0.0,
            };
        }
    }
    let exit = if status & 0x7f != 0 {
        Err(format!("killed by signal {}", status & 0x7f))
    } else if (status >> 8) & 0xff != 0 {
        Err(format!("exited with code {}", (status >> 8) & 0xff))
    } else {
        Ok(())
    };
    let timeval = |t: [i64; 2]| t[0] as f64 + t[1] as f64 * 1e-6;
    Reaped {
        exit,
        cpu_s: timeval(usage.utime) + timeval(usage.stime),
        peak_rss_mb: usage.maxrss_kb as f64 / 1024.0,
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn nearest_rank_percentiles() {
        let mut v: Vec<f64> = (1..=100).map(f64::from).collect();
        assert_eq!(percentile(&mut v, 0.5), 50.0);
        assert_eq!(percentile(&mut v, 0.99), 99.0);
        assert_eq!(median(&mut [3.0, 1.0, 2.0, 10.0]), 2.5);
    }

    #[test]
    fn per_invocation_median_ignores_one_slow_repetition() {
        let reps = vec![vec![1.0, 2.0], vec![1.1, 9.0], vec![0.9, 2.2], vec![5.0]];
        assert_eq!(per_invocation_median(&reps), vec![1.0, 2.2]);
        assert!(per_invocation_median(&[]).is_empty());
    }

    #[test]
    fn calibration_scales_by_the_mean_reference_time() {
        let mut c = Calibration {
            samples: vec![0.5 * REFERENCE_NOMINAL_S, 1.5 * REFERENCE_NOMINAL_S],
            ..Calibration::default()
        };
        assert!((c.scale() - 1.0).abs() < 1e-12);
        c.after_work(REFERENCE_INTERVAL_S / 2.0);
        assert_eq!(c.samples.len(), 2, "not enough work for another reference run");
        c.after_work(REFERENCE_INTERVAL_S / 2.0);
        assert_eq!(c.samples.len(), 3);
        assert!(c.samples[2] > 0.0);
    }
}
