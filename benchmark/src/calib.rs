//! Machine-normalised timing.
//!
//! The benchmark runs on small shared machines whose speed drifts by a
//! factor of two and more between runs and within them (a contended
//! host: the single-thread speed moves by up to 2×, and the second vCPU
//! comes and goes altogether). Raw wall time of an unchanged build
//! would drown any bound. Two measures take the machine out:
//!
//! * the process is pinned to one CPU ([`pin_to_one_cpu`]), so code with
//!   a second runnable thread is time-sliced on that CPU and its wall
//!   time is its total work, whether or not the second vCPU is there —
//!   and, there being one CPU, uses one allocator arena;
//! * the drift is slow compared with one op, so every timed op is
//!   bracketed by readings of a fixed *reference kernel* and reported
//!   relative to them:
//!
//!   `cal_ms = raw_ms × KREF_MS ÷ mean(kernel_before, kernel_after)`
//!
//! `KREF_MS` is the kernel's time on a quiet run of the reference
//! machine, so calibrated values stay in milliseconds "on the reference
//! machine". The kernel is written here and calls no repository code: a
//! change to the repository cannot move the yardstick.

use std::collections::HashMap;
use std::hint::black_box;
use std::time::Instant;

use crate::stats::quantile;

/// The reference kernel's quiet-machine time in milliseconds (p5 of
/// ~100 000 readings on the 2-vCPU Xeon 2.1 GHz VM this benchmark was
/// developed on). Pinned: changing it rescales every calibrated metric.
pub const KREF_MS: f64 = 2.2;

/// "Methods" the kernel compiles.
const KERNEL_METHODS: usize = 2_500;

/// A kernel reading older than this is not reused as the next op's
/// "before" reading: untimed preparation ran in between.
const REUSE_WITHIN_MS: f64 = 3.0;

/// The reference kernel: single-threaded and compiler-like. It builds a
/// few thousand small instruction lists, runs two rewriting passes over
/// them (value numbering through a `HashMap`, then dead-entry removal —
/// each pass allocates every list anew and frees the old one), flattens
/// and sorts the result and probes it. The blend matters more than the
/// size: what slows the builds on a contended host slows small-object
/// allocation most, hashing and sorting less, and a pure pointer chase
/// hardly at all, so a kernel without the allocation churn under-reads
/// the slowdown by a third.
pub fn kernel() -> u64 {
    let mut x: u64 = 0x9e37_79b9_7f4a_7c15;
    let mut next = move || {
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        x
    };
    let mut methods: Vec<Vec<u64>> = (0..KERNEL_METHODS)
        .map(|_| {
            let len = 4 + (next() % 28) as usize;
            (0..len).map(|_| next()).collect()
        })
        .collect();
    let mut numbers: HashMap<u64, u32> = HashMap::new();
    for method in &mut methods {
        let numbered: Vec<u64> = method
            .iter()
            .map(|w| {
                let fresh = numbers.len() as u32;
                let id = *numbers.entry(w >> 52).or_insert(fresh);
                (w << 12) | u64::from(id)
            })
            .collect();
        *method = numbered;
    }
    for method in &mut methods {
        let live: Vec<u64> = method.iter().copied().filter(|w| w % 5 != 0).collect();
        *method = live;
    }
    let mut flat: Vec<u64> = methods.iter().flatten().copied().collect();
    flat.sort_unstable();
    let mut acc = numbers.len() as u64;
    for method in methods.iter().step_by(3) {
        for w in method.iter().take(4) {
            acc = acc.wrapping_mul(31).wrapping_add(flat.partition_point(|s| s < w) as u64);
        }
    }
    black_box(acc)
}

fn time_ms<T>(f: impl FnOnce() -> T) -> f64 {
    let start = Instant::now();
    black_box(f());
    start.elapsed().as_secs_f64() * 1e3
}

#[cfg(target_os = "linux")]
extern "C" {
    fn sched_getaffinity(pid: i32, cpusetsize: usize, mask: *mut u64) -> i32;
    fn sched_setaffinity(pid: i32, cpusetsize: usize, mask: *const u64) -> i32;
}

#[cfg(all(target_os = "linux", target_env = "gnu"))]
extern "C" {
    fn mallopt(param: i32, value: i32) -> i32;
}

/// Keeps glibc's allocator to one arena. By default every thread that
/// finds the arenas busy gets a new one, so which thread's memory lands
/// where — and with it the process's resident set — depends on how the
/// daemon's threads happened to interleave: the same run read 50 MB five
/// times and 56 and 64 MB once each. On the one pinned CPU no two
/// threads allocate at the same instant, and one arena costs nothing.
/// Call before any thread is spawned. `false` where there is no such
/// switch.
pub fn one_malloc_arena() -> bool {
    #[cfg(all(target_os = "linux", target_env = "gnu"))]
    {
        const M_ARENA_MAX: i32 = -8;
        // SAFETY: `mallopt` takes two integers and touches only the
        // allocator's own settings.
        unsafe { mallopt(M_ARENA_MAX, 1) == 1 }
    }
    #[cfg(not(all(target_os = "linux", target_env = "gnu")))]
    false
}

/// Restricts the calling thread — and every thread it spawns later — to
/// the first CPU it is allowed on, and returns that CPU's number. Call
/// before any thread is spawned. `None` when the platform has no such
/// call or refuses it; the run then goes on unpinned, and code with a
/// second runnable thread is measured less steadily.
pub fn pin_to_one_cpu() -> Option<usize> {
    #[cfg(target_os = "linux")]
    {
        // A `cpu_set_t` of 1024 CPUs.
        let mut mask = [0u64; 16];
        let bytes = std::mem::size_of_val(&mask);
        // SAFETY: `mask` is a live, writable buffer of `bytes` bytes; pid 0
        // names the calling thread.
        if unsafe { sched_getaffinity(0, bytes, mask.as_mut_ptr()) } != 0 {
            return None;
        }
        let word = mask.iter().position(|w| *w != 0)?;
        let bit = mask[word].trailing_zeros() as usize;
        mask = [0; 16];
        mask[word] = 1 << bit;
        // SAFETY: `mask` is a live buffer of `bytes` bytes that the call
        // only reads.
        if unsafe { sched_setaffinity(0, bytes, mask.as_ptr()) } != 0 {
            return None;
        }
        Some(word * 64 + bit)
    }
    #[cfg(not(target_os = "linux"))]
    None
}

/// One timed op.
#[derive(Clone, Copy, Debug)]
pub struct Sample {
    /// Wall time as measured.
    pub raw_ms: f64,
    /// Wall time on the reference machine.
    pub cal_ms: f64,
}

/// `raw_ms` scaled by how much slower than the reference machine the
/// kernel ran just before and just after.
pub fn calibrate(raw_ms: f64, kernel_before_ms: f64, kernel_after_ms: f64) -> f64 {
    raw_ms * KREF_MS / ((kernel_before_ms + kernel_after_ms) / 2.0)
}

/// Times ops between kernel readings and keeps the machine record.
pub struct Calibrator {
    /// Every kernel reading, in milliseconds.
    readings: Vec<f64>,
    /// When the last reading finished.
    last_at: Instant,
}

impl Calibrator {
    /// The kernel's code and data are warm when this returns.
    pub fn new() -> Calibrator {
        for _ in 0..5 {
            kernel();
        }
        Calibrator { readings: Vec::new(), last_at: Instant::now() }
    }

    fn reading(&mut self) -> f64 {
        let ms = time_ms(kernel);
        self.readings.push(ms);
        self.last_at = Instant::now();
        ms
    }

    /// Runs `op` between two kernel readings. Back-to-back ops share the
    /// reading between them.
    pub fn time<T>(&mut self, op: impl FnOnce() -> T) -> (T, Sample) {
        let before = match self.readings.last() {
            Some(&r) if self.last_at.elapsed().as_secs_f64() * 1e3 < REUSE_WITHIN_MS => r,
            _ => self.reading(),
        };
        let start = Instant::now();
        let out = op();
        let raw_ms = start.elapsed().as_secs_f64() * 1e3;
        let after = self.reading();
        (out, Sample { raw_ms, cal_ms: calibrate(raw_ms, before, after) })
    }

    /// The machine as the run saw it.
    pub fn machine_record(&self) -> MachineRecord {
        let p10 = quantile(&self.readings, 0.1);
        MachineRecord {
            kernel_ms_p10: p10,
            kernel_ms_p50: quantile(&self.readings, 0.5),
            kernel_spread: quantile(&self.readings, 0.9) / p10,
        }
    }
}

#[derive(Clone, Copy, Debug)]
pub struct MachineRecord {
    pub kernel_ms_p10: f64,
    pub kernel_ms_p50: f64,
    /// p90 ÷ p10 of the readings.
    pub kernel_spread: f64,
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::stats::median;

    #[test]
    fn kernel_is_deterministic() {
        assert_eq!(kernel(), kernel());
    }

    /// A machine that slows down by 1.3× halfway through slows op and
    /// kernel alike; the calibrated median must not notice.
    #[test]
    fn calibration_cancels_a_slowdown_step() {
        let x = std::cell::Cell::new(42u64);
        let jitter = || {
            let mut v = x.get();
            v ^= v << 13;
            v ^= v >> 7;
            v ^= v << 17;
            x.set(v);
            0.97 + 0.06 * (v % 1000) as f64 / 1000.0
        };
        let (mut steady, mut stepped, mut raw_stepped) = (Vec::new(), Vec::new(), Vec::new());
        for i in 0..400 {
            let (k0, k1) = (KREF_MS * jitter(), KREF_MS * jitter());
            let op = 40.0 * jitter();
            let slow = if i >= 200 { 1.3 } else { 1.0 };
            steady.push(calibrate(op, k0, k1));
            stepped.push(calibrate(op * slow, k0 * slow, k1 * slow));
            raw_stepped.push(op * slow);
        }
        let rel = (median(&stepped) / median(&steady) - 1.0).abs();
        assert!(rel < 0.02, "calibrated medians differ by {rel}");
        // The raw median does move — the test is not vacuous.
        assert!(median(&raw_stepped) / median(&steady) > 1.05);
    }

    /// Not a check: prints the kernel's time on this machine, for
    /// re-pinning `KREF_MS` on another reference machine. Run with
    /// `cargo test --release -- --ignored --nocapture kernel_quiet_time`.
    #[test]
    #[ignore]
    fn kernel_quiet_time() {
        let mut cal = Calibrator::new();
        for _ in 0..2000 {
            cal.reading();
        }
        println!("kernel over 2000 readings: {:?}", cal.machine_record());
    }

    #[test]
    fn calibrator_brackets_every_op_and_shares_adjacent_readings() {
        let mut cal = Calibrator::new();
        let (v, s) = cal.time(|| 7);
        assert_eq!(v, 7);
        assert!(s.raw_ms >= 0.0 && s.cal_ms >= 0.0);
        assert_eq!(cal.readings.len(), 2);
        cal.time(|| ());
        assert_eq!(cal.readings.len(), 3, "adjacent ops share one reading");
        let m = cal.machine_record();
        assert!(m.kernel_ms_p10 > 0.0 && m.kernel_ms_p50 >= m.kernel_ms_p10);
        assert!(m.kernel_spread >= 1.0);
    }

    /// Threads spawned after pinning stay on the pinned CPU.
    #[test]
    #[cfg(target_os = "linux")]
    fn pinning_is_inherited_by_later_threads() {
        std::thread::spawn(|| {
            let Some(cpu) = pin_to_one_cpu() else { return };
            let allowed = |()| {
                let status = std::fs::read_to_string("/proc/thread-self/status").unwrap();
                status
                    .lines()
                    .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))
                    .unwrap()
                    .trim()
                    .to_owned()
            };
            assert_eq!(allowed(()), cpu.to_string());
            assert_eq!(std::thread::spawn(move || allowed(())).join().unwrap(), cpu.to_string());
        })
        .join()
        .unwrap();
    }
}
