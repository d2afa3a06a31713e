//! Machine-speed calibration.
//!
//! The small virtual machines this benchmark runs on change speed by a
//! third or more for seconds to minutes at a time as other tenants of the
//! host come and go (measured: a cached serving decision alternating
//! between ~370 ns and ~600 ns with nothing else running in the guest), so
//! a run that lands in a slow phase reads slow on every figure. Each
//! measuring thread therefore times a fixed reference kernel in short
//! bursts between its timed intervals, and every end-to-end time is scaled
//! by how fast the kernel ran around it relative to [`NOMINAL_NS`]: a time
//! becomes "what it would have taken at nominal machine speed". A change
//! to the program moves the program's figures and not the kernel, so it
//! shows in full; a phase of the machine moves both and largely cancels.
//!
//! The kernel uses the standard library only (formatting, SipHash, a
//! string-keyed map), the same kind of allocation, hashing and pointer
//! chasing a cached decision does; a tight arithmetic loop did not see the
//! phases that slow the serving path.
//!
//! A slow phase slows the program more than it slows the kernel: fitted
//! over runs on the 2-vCPU VM, raw `wire-hot` figures followed the
//! kernel's speed to a power of about 1.2 and `relearn`'s serving
//! decisions to a power of 1.3 to 2.0, so those workloads scale by the
//! speed to a fixed power ([`Speedometer::with_sensitivity`]).

use std::collections::HashMap;
use std::hint::black_box;
use std::io::{self, Read, Write};
use std::net::{TcpListener, TcpStream};
use std::time::Instant;

/// Distinct keys the kernel's map cycles through (a few hundred KiB).
const KEYS: usize = 4096;
/// Kernel steps per burst (about half a millisecond).
const STEPS: usize = 2048;
/// The burst time, in ns, that counts as speed 1.0: near the kernel's
/// median on the 2-vCPU VM the benchmark was tuned on, so adjusted figures
/// read close to raw ones there.
pub const NOMINAL_NS: f64 = 460_000.0;
/// Loopback exchanges per burst of a [`Calibrator::with_loopback`].
const EXCHANGES: usize = 32;
/// Bytes each way per exchange: about a `/decide` request.
const EXCHANGE_BYTES: usize = 256;
/// Burst time that counts as speed 1.0 with the loopback exchanges.
pub const NOMINAL_LOOPBACK_NS: f64 = 520_000.0;

/// The reference kernel: a string-keyed map it probes and updates, and
/// optionally a loopback TCP connection it sends through.
pub struct Calibrator {
    map: HashMap<String, u64>,
    step: u64,
    /// Both ends of a loopback connection, owned by the calling thread.
    pair: Option<(TcpStream, TcpStream)>,
    nominal_ns: f64,
}

impl Calibrator {
    pub fn new() -> Calibrator {
        let mut c = Calibrator {
            map: (0..KEYS).map(|k| (key(k), k as u64)).collect(),
            step: 0,
            pair: None,
            nominal_ns: NOMINAL_NS,
        };
        // One untimed burst warms the caches.
        black_box(c.kernel());
        c
    }

    /// A kernel that also sends [`EXCHANGES`] request-sized messages each
    /// way through a loopback TCP connection whose both ends it owns, so
    /// the socket path a wire workload spends most of its time in is part
    /// of the reference. No thread is woken: both ends are read and written
    /// from the calling thread.
    pub fn with_loopback() -> io::Result<Calibrator> {
        let listener = TcpListener::bind("127.0.0.1:0")?;
        let a = TcpStream::connect(listener.local_addr()?)?;
        let (b, _) = listener.accept()?;
        a.set_nodelay(true)?;
        b.set_nodelay(true)?;
        let mut c = Calibrator {
            pair: Some((a, b)),
            nominal_ns: NOMINAL_LOOPBACK_NS,
            ..Calibrator::new()
        };
        black_box(c.kernel());
        Ok(c)
    }

    /// Formats a key, hashes it, probes and rewrites a string-keyed map,
    /// and drops the key; then the loopback exchanges, if any.
    fn kernel(&mut self) -> u64 {
        let mut acc = 0u64;
        for _ in 0..STEPS {
            self.step = self
                .step
                .wrapping_mul(6_364_136_223_846_793_005)
                .wrapping_add(1);
            let k = (self.step >> 33) as usize % KEYS;
            if let Some(v) = self.map.get_mut(&key(k)) {
                *v = v.wrapping_add(self.step);
                acc = acc.wrapping_add(*v);
            }
        }
        if let Some((a, b)) = &mut self.pair {
            let out = [acc as u8; EXCHANGE_BYTES];
            let mut back = [0u8; EXCHANGE_BYTES];
            for _ in 0..EXCHANGES {
                // Both ends are this thread's own; a failure here is a
                // broken machine, not a figure.
                a.write_all(&out)
                    .and_then(|()| b.read_exact(&mut back))
                    .and_then(|()| b.write_all(&back))
                    .and_then(|()| a.read_exact(&mut back))
                    .expect("calibration loopback exchange");
                acc = acc.wrapping_add(u64::from(back[0]));
            }
        }
        acc
    }

    /// Times one burst; returns the machine's speed now, nominal burst
    /// time over measured burst time (above 1.0 when fast).
    pub fn burst(&mut self) -> f64 {
        let started = Instant::now();
        black_box(self.kernel());
        self.nominal_ns / (started.elapsed().as_nanos().max(1) as f64)
    }
}

/// The kernel's `k`-th key.
fn key(k: usize) -> String {
    format!("subject={k};action=task-{}", k % 7)
}

/// The machine speed around consecutive timed intervals on one thread.
pub struct Speedometer {
    calib: Calibrator,
    /// Speed measured at the end of the previous interval.
    last: f64,
    /// Every speed measured, for the provenance line.
    pub speeds: Vec<f64>,
    /// How strongly the timed work follows the kernel: it slows by the
    /// kernel's slowdown to this power (see [`Speedometer::with_sensitivity`]).
    sensitivity: f64,
}

impl Default for Speedometer {
    fn default() -> Speedometer {
        Speedometer::new()
    }
}

impl Speedometer {
    /// Measures the speed once, as the start of the first interval.
    pub fn new() -> Speedometer {
        Speedometer::with(Calibrator::new())
    }

    /// A speedometer on the given kernel.
    pub fn with(mut calib: Calibrator) -> Speedometer {
        let last = calib.burst();
        Speedometer {
            calib,
            last,
            speeds: vec![last],
            sensitivity: 1.0,
        }
    }

    /// Scales by the speed to the power `k` instead of the speed itself,
    /// for timed work that a slow phase of the machine slows more than the
    /// kernel (`k` > 1). A program change still moves the scaled figure in
    /// full: `k` only sets how a phase of the machine is taken out.
    pub fn with_sensitivity(mut self, k: f64) -> Speedometer {
        self.sensitivity = k;
        self
    }

    /// Ends a timed interval: measures the speed now and returns the factor
    /// to scale the interval by, the mean of the speeds before and after it
    /// (to the power of the sensitivity).
    pub fn interval(&mut self) -> f64 {
        let now = self.calib.burst();
        self.speeds.push(now);
        let around = (self.last + now) / 2.0;
        self.last = now;
        self.factor(around)
    }

    /// The factor a time measured at machine speed `speed` is scaled by:
    /// the speed to the power of the sensitivity.
    pub fn factor(&self, speed: f64) -> f64 {
        speed.powf(self.sensitivity)
    }

    /// The speed measured last.
    pub fn last(&self) -> f64 {
        self.last
    }
}

/// A time measured at machine speed `speed`, expressed at nominal speed.
pub fn adjust(ns: u64, speed: f64) -> u64 {
    (ns as f64 * speed).round() as u64
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn speed_is_nominal_over_measured_and_positive() {
        let mut s = Speedometer::new();
        let around = s.interval();
        assert!(around > 0.0 && around.is_finite());
        assert_eq!(s.speeds.len(), 2);
        assert_eq!(around, (s.speeds[0] + s.speeds[1]) / 2.0);
        assert_eq!(s.last(), s.speeds[1]);
    }

    #[test]
    fn sensitivity_raises_the_speed_to_its_power() {
        let mut s = Speedometer::new().with_sensitivity(2.0);
        let factor = s.interval();
        let around = (s.speeds[0] + s.speeds[1]) / 2.0;
        assert!((factor - around * around).abs() < 1e-12);
    }

    #[test]
    fn adjusting_scales_by_speed() {
        // Measured 1000 ns while the machine ran at 0.8 of nominal: at
        // nominal speed it would have taken 800 ns.
        assert_eq!(adjust(1000, 0.8), 800);
        assert_eq!(adjust(1000, 1.0), 1000);
    }
}
