//! Host-speed probe.
//!
//! Two things move the benchmark's host times that no change to the
//! program causes:
//!
//! - The reference host is a shared virtual machine whose speed drifts with
//!   what other tenants run: one `hetero-table3` pass took 5.1 s for a
//!   quarter of an hour, 2.1-2.4 s for most of the next hour, and then
//!   anything from 2.4 to 4.9 s.
//! - `std::str::from_utf8` runs 1.7× slower or faster depending on where
//!   the linker places it, which any unrelated code change can shift. The
//!   set-up of the two cluster workloads spends most of its time there (see
//!   `perfbench/README.md`).
//!
//! Both move a fixed reference computation too. So a run probes the host
//! before every pass, and its times are divided by the median probe time
//! and scaled to a nominal probe time: the end-to-end times read as seconds
//! on a host where the probe takes its nominal time. The probe uses only
//! the standard library, so no change to the program's own code moves it.

use std::cmp::Reverse;
use std::collections::BinaryHeap;
use std::hint::black_box;
use std::time::Instant;

/// Nominal times of the two probe components: about what each takes on
/// the reference host (2-vCPU Xeon of the Sapphire Rapids generation under
/// KVM) in its fast state.
const NOMINAL_EVENTS_S: f64 = 0.030;
const NOMINAL_UTF8_S: f64 = 0.008;

/// Events the event-loop component pops.
const EVENTS: u64 = 400_000;
/// Passes of the UTF-8 component over its 64 KiB text.
const SCANS: usize = 4_000;

/// One probe: how long each component took, in seconds.
#[derive(Debug, Clone, Copy)]
pub struct Probe {
    /// A heap-ordered event loop: the shape of the simulator's event queue.
    pub events_s: f64,
    /// UTF-8 validation scans through `std::str::from_utf8`, the call the
    /// JSON parser spends most of a cluster workload's set-up in.
    pub utf8_s: f64,
}

impl Probe {
    /// Factor turning host seconds of simulation work into calibrated ones.
    pub fn events_scale(&self) -> f64 {
        NOMINAL_EVENTS_S / self.events_s
    }

    /// Factor turning host seconds of UTF-8 validation into calibrated ones.
    pub fn utf8_scale(&self) -> f64 {
        NOMINAL_UTF8_S / self.utf8_s
    }

    /// Component-wise median of a run's probes.
    pub fn median(probes: &[Probe]) -> Probe {
        Probe {
            events_s: crate::median(probes.iter().map(|p| p.events_s).collect()),
            utf8_s: crate::median(probes.iter().map(|p| p.utf8_s).collect()),
        }
    }
}

fn events() -> f64 {
    let mut heap = BinaryHeap::with_capacity(2048);
    let mut state = vec![0u64; 4096];
    let t0 = Instant::now();
    for i in 0..1024u64 {
        heap.push(Reverse((i * 7, i)));
    }
    let mut x: u64 = 0x9E37_79B9_7F4A_7C15;
    for _ in 0..EVENTS {
        let Reverse((t, id)) = heap.pop().expect("the queue never drains");
        x ^= x << 13;
        x ^= x >> 7;
        x ^= x << 17;
        let slot = (x as usize) & (state.len() - 1);
        state[slot] = state[slot].wrapping_add(t ^ id);
        let dt = if state[slot] & 1 == 0 {
            x % 97
        } else {
            x % 13 + 3
        };
        heap.push(Reverse((t + dt, id)));
    }
    black_box((&heap, &state));
    t0.elapsed().as_secs_f64()
}

fn utf8() -> f64 {
    let text: Vec<u8> = (0..65_536u32).map(|i| b' ' + (i % 90) as u8).collect();
    let t0 = Instant::now();
    let mut scanned = 0;
    for k in 0..SCANS {
        scanned += std::str::from_utf8(black_box(&text[k % 64..]))
            .expect("the text is ASCII")
            .len();
    }
    black_box(scanned);
    t0.elapsed().as_secs_f64()
}

/// Probe the host's speed on the calling thread. A probe on as many
/// threads as a parallel pass has workers would load the host the way the
/// pass does, but on the reference host such probes spread 7 % between
/// runs whose pass times agree to 1 %; one thread repeats to 0.5 % and
/// tracks the two-worker passes as well.
pub fn probe() -> Probe {
    Probe {
        events_s: events(),
        utf8_s: utf8(),
    }
}
