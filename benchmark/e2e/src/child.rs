//! Runs one child process to its end and measures it from outside: wall
//! clock from spawn to the collected exit status, peak resident set and
//! CPU time from the kernel's accounting.

use std::ffi::{c_int, c_long};
use std::io::Read;
use std::path::Path;
use std::process::{Command, Stdio};
use std::sync::mpsc;
use std::time::{Duration, Instant};

/// What one finished child cost.
#[derive(Debug, Clone)]
pub struct ChildRun {
    pub stdout: Vec<u8>,
    /// Spawn to exit status collected, with stdout read to its end.
    pub wall_s: f64,
    /// The child's peak resident set (`ru_maxrss`).
    pub peak_rss_kib: u64,
    /// User plus system CPU seconds, over all the child's threads.
    pub cpu_s: f64,
    /// Recorder-clock interval of the run, for the `child` span.
    pub start_ns: u64,
    pub end_ns: u64,
}

/// `struct rusage` as Linux lays it out: two `timeval`s of two longs
/// each, then fourteen longs of which `ru_maxrss` (KiB) is the first.
#[repr(C)]
#[derive(Default)]
struct Rusage {
    utime: [c_long; 2],
    stime: [c_long; 2],
    maxrss: c_long,
    rest: [c_long; 13],
}

extern "C" {
    fn wait4(pid: c_int, status: *mut c_int, options: c_int, rusage: *mut Rusage) -> c_int;
}

/// Reaps `pid` and returns its wait status with its resource usage.
fn reap(pid: u32) -> std::io::Result<(c_int, Rusage)> {
    let mut status: c_int = 0;
    let mut usage = Rusage::default();
    // SAFETY: `wait4` writes one `int` and one `struct rusage` through the
    // two pointers, both of which point to live, writable values of those
    // layouts (`Rusage` is `repr(C)` and matches the Linux definition);
    // it keeps neither pointer after it returns.
    let got = unsafe { wait4(pid as c_int, &mut status, 0, &mut usage) };
    if got < 0 {
        return Err(std::io::Error::last_os_error());
    }
    Ok((status, usage))
}

fn timeval_s(tv: [c_long; 2]) -> f64 {
    tv[0] as f64 + tv[1] as f64 * 1e-6
}

/// Runs `program args…`, reading its stdout to the end. A child that is
/// still running after `limit` is killed and reported as an error, as is
/// one that exits with a status other than 0. `clock` gives the recorder
/// clock for the span interval.
pub fn run(
    program: &Path,
    args: &[String],
    limit: Duration,
    clock: impl Fn() -> u64,
) -> Result<ChildRun, String> {
    let start_ns = clock();
    let t0 = Instant::now();
    let mut child = Command::new(program)
        .args(args)
        .stdin(Stdio::null())
        .stdout(Stdio::piped())
        .stderr(Stdio::null())
        .spawn()
        .map_err(|e| format!("spawning {}: {e}", program.display()))?;
    let pid = child.id();
    let mut pipe = child.stdout.take().expect("stdout was piped");
    // the read happens on a thread of its own so that the wait for it can
    // time out; the thread ends when the child closes its stdout
    let (tx, rx) = mpsc::channel();
    let reader = std::thread::spawn(move || {
        let mut buf = Vec::new();
        let read = pipe.read_to_end(&mut buf).map(|_| buf);
        let _ = tx.send(read);
    });
    let received = rx.recv_timeout(limit);
    if received.is_err() {
        // past the limit (or the reader died): stop the child so that the
        // reap below cannot block
        let _ = child.kill();
    }
    // `wait4` in place of `Child::wait`: it is the one call that returns
    // the child's peak resident set. The `Child` is never waited on again.
    let reaped = reap(pid);
    let wall_s = t0.elapsed().as_secs_f64();
    let end_ns = clock();
    reader
        .join()
        .map_err(|_| "the stdout reader panicked".to_string())?;
    let (status, usage) = reaped.map_err(|e| format!("wait4: {e}"))?;
    let stdout = match received {
        Ok(read) => read.map_err(|e| format!("reading the child's stdout: {e}"))?,
        Err(_) => {
            return Err(format!(
                "still running after {:.1} s: killed",
                limit.as_secs_f64()
            ))
        }
    };
    // a normal exit has no signal bits; its code is the next byte up
    if status & 0x7f != 0 || (status >> 8) & 0xff != 0 {
        return Err(format!(
            "ended with wait status {status:#x} (exit code {}, signal {})",
            (status >> 8) & 0xff,
            status & 0x7f
        ));
    }
    Ok(ChildRun {
        stdout,
        wall_s,
        peak_rss_kib: usage.maxrss.max(0) as u64,
        cpu_s: timeval_s(usage.utime) + timeval_s(usage.stime),
        start_ns,
        end_ns,
    })
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sh(script: &str, limit: Duration) -> Result<ChildRun, String> {
        run(
            Path::new("sh"),
            &["-c".to_string(), script.to_string()],
            limit,
            || 0,
        )
    }

    #[test]
    fn collects_output_status_and_usage() {
        let ok = sh("printf hello", Duration::from_secs(20)).unwrap();
        assert_eq!(ok.stdout, b"hello");
        assert!(ok.wall_s > 0.0);
        assert!(ok.peak_rss_kib > 0, "the kernel accounts a resident set");
        assert!(ok.cpu_s >= 0.0);
        let err = sh("printf partial; exit 3", Duration::from_secs(20)).unwrap_err();
        assert!(err.contains("exit code 3"), "{err}");
        assert!(run(
            Path::new("/no/such/program"),
            &[],
            Duration::from_secs(1),
            || 0
        )
        .is_err());
    }

    #[test]
    fn a_child_past_its_limit_is_killed() {
        let t0 = Instant::now();
        let err = sh("exec sleep 30", Duration::from_millis(200)).unwrap_err();
        assert!(err.contains("killed"), "{err}");
        assert!(t0.elapsed() < Duration::from_secs(10));
    }
}
