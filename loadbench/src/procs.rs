//! Child processes and run directories.
//!
//! Every server is spawned with `--port 0`; its address comes from the
//! `listening on http://…` banner it prints once bound. Stdout and
//! stderr go to files in the run directory, which are polled for the
//! readiness lines, so no reader threads are needed. A [`Fleet`] owns
//! its children: dropping it — on success, on error, or while a panic
//! unwinds — kills and reaps every one. Each child also asks the kernel
//! to kill it should the benchmark itself die first.

use std::net::SocketAddr;
use std::path::{Path, PathBuf};
use std::process::{Child, Command, Stdio};
use std::time::{Duration, Instant};

/// How long a server may take to print its readiness lines.
const READY_TIMEOUT: Duration = Duration::from_secs(60);

extern "C" {
    fn prctl(option: i32, ...) -> i32;
    fn clock_getcpuclockid(pid: i32, clock: *mut i32) -> i32;
    fn clock_gettime(clock: i32, tp: *mut Timespec) -> i32;
}

#[repr(C)]
#[derive(Default)]
struct Timespec {
    tv_sec: i64,
    tv_nsec: i64,
}
const PR_SET_PDEATHSIG: i32 = 1;
const PR_SET_TIMERSLACK: i32 = 29;
const SIGKILL: u64 = 9;

/// Shrink this thread's timer slack (and that of threads it creates
/// afterwards) to 1 ns, so a sleep until a request's due time wakes
/// within microseconds rather than the default 50 µs late.
pub fn tighten_timer_slack() {
    // SAFETY: PR_SET_TIMERSLACK takes one unsigned long and touches no
    // memory of ours; failure only leaves the default slack in place.
    unsafe {
        prctl(PR_SET_TIMERSLACK, 1u64);
    }
}

/// CPU time of the calling thread, seconds.
pub fn thread_cpu_secs() -> f64 {
    const CLOCK_THREAD_CPUTIME_ID: i32 = 3;
    let mut ts = Timespec::default();
    // SAFETY: writes only `ts`, which outlives the call.
    unsafe { clock_gettime(CLOCK_THREAD_CPUTIME_ID, &mut ts) };
    ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9
}

/// A server the benchmark started.
pub struct Server {
    pub name: &'static str,
    pub addr: SocketAddr,
    child: Child,
}

impl Server {
    /// Peak resident set (`VmHWM`) so far, MiB.
    pub fn peak_rss_mb(&self) -> std::io::Result<f64> {
        let status = std::fs::read_to_string(format!("/proc/{}/status", self.child.id()))?;
        status
            .lines()
            .find_map(|l| l.strip_prefix("VmHWM:"))
            .and_then(|v| v.trim().strip_suffix("kB"))
            .and_then(|kb| kb.trim().parse::<f64>().ok())
            .map(|kb| kb / 1024.0)
            .ok_or_else(|| std::io::Error::other("no VmHWM line"))
    }

    /// CPU time the process has used so far, all threads (exited ones
    /// too), in seconds, at nanosecond resolution. Time the hypervisor
    /// steals from the vCPU is not in it.
    pub fn cpu_secs(&self) -> std::io::Result<f64> {
        let (mut clock, mut ts) = (0i32, Timespec::default());
        // SAFETY: both calls only write the out-parameter they are given,
        // which lives on this stack frame for the duration of the call.
        let rc = unsafe { clock_getcpuclockid(self.child.id() as i32, &mut clock) };
        if rc != 0 {
            return Err(std::io::Error::from_raw_os_error(rc));
        }
        // SAFETY: as above.
        if unsafe { clock_gettime(clock, &mut ts) } != 0 {
            return Err(std::io::Error::last_os_error());
        }
        Ok(ts.tv_sec as f64 + ts.tv_nsec as f64 * 1e-9)
    }
}

/// The servers of one topology. Dropping the fleet kills and reaps all.
#[derive(Default)]
pub struct Fleet {
    pub servers: Vec<Server>,
}

impl Fleet {
    /// Spawn `program args…` with stdout/stderr logged under `log_dir`
    /// and wait until it prints `banner_prefix` followed by its address,
    /// plus every line starting with one of `also`.
    pub fn spawn(
        &mut self,
        name: &'static str,
        program: &Path,
        args: &[String],
        log_dir: &Path,
        banner_prefix: &str,
        also: &[&str],
    ) -> Result<SocketAddr, String> {
        let n = self.servers.len();
        let out_path = log_dir.join(format!("{name}-{n}.out"));
        let err_path = log_dir.join(format!("{name}-{n}.err"));
        let file = |p: &Path| std::fs::File::create(p).map_err(|e| format!("{}: {e}", p.display()));
        let mut cmd = Command::new(program);
        cmd.args(args)
            .env("MALLOC_ARENA_MAX", "1")
            .stdin(Stdio::null())
            .stdout(file(&out_path)?)
            .stderr(file(&err_path)?);
        // SAFETY: runs in the forked child before exec; prctl is
        // async-signal-safe and only sets the child's parent-death
        // signal, so no lock or allocation of the parent is touched.
        unsafe {
            use std::os::unix::process::CommandExt;
            cmd.pre_exec(|| {
                prctl(PR_SET_PDEATHSIG, SIGKILL);
                Ok(())
            });
        }
        let child = cmd
            .spawn()
            .map_err(|e| format!("spawn {}: {e}", program.display()))?;
        // Own the child before waiting, so every failure below reaps it.
        self.servers.push(Server {
            name,
            addr: SocketAddr::from(([127, 0, 0, 1], 0)),
            child,
        });
        let addr = self.await_banner(&out_path, &err_path, banner_prefix, also)?;
        self.servers.last_mut().expect("just pushed").addr = addr;
        Ok(addr)
    }

    fn await_banner(
        &mut self,
        out_path: &Path,
        err_path: &Path,
        banner_prefix: &str,
        also: &[&str],
    ) -> Result<SocketAddr, String> {
        let started = Instant::now();
        loop {
            let text = std::fs::read_to_string(out_path).unwrap_or_default();
            let complete: Vec<&str> = text
                .split_inclusive('\n')
                .filter(|l| l.ends_with('\n'))
                .collect();
            let addr = complete
                .iter()
                .find_map(|l| l.trim_end().strip_prefix(banner_prefix))
                .and_then(|a| a.parse::<SocketAddr>().ok());
            let rest_ready = also
                .iter()
                .all(|p| complete.iter().any(|l| l.starts_with(p)));
            if let (Some(addr), true) = (addr, rest_ready) {
                return Ok(addr);
            }
            let server = self.servers.last_mut().expect("spawned");
            if let Ok(Some(status)) = server.child.try_wait() {
                let err = std::fs::read_to_string(err_path).unwrap_or_default();
                return Err(format!(
                    "{} exited before ready ({status}): {err}",
                    server.name
                ));
            }
            if started.elapsed() > READY_TIMEOUT {
                return Err(format!("{} not ready after {READY_TIMEOUT:?}", server.name));
            }
            std::thread::sleep(Duration::from_millis(1));
        }
    }

    /// Sum of every server's peak resident set, MiB.
    pub fn peak_rss_mb(&self) -> Result<f64, String> {
        Ok(self.peak_rss_by_server()?.iter().map(|(_, mb)| mb).sum())
    }

    /// Each server's name and peak resident set, MiB.
    pub fn peak_rss_by_server(&self) -> Result<Vec<(&'static str, f64)>, String> {
        self.servers
            .iter()
            .map(|s| {
                s.peak_rss_mb()
                    .map(|mb| (s.name, mb))
                    .map_err(|e| format!("{} VmHWM: {e}", s.name))
            })
            .collect()
    }

    /// Sum of every server's CPU time so far, seconds.
    pub fn cpu_secs(&self) -> Result<f64, String> {
        self.servers
            .iter()
            .map(|s| {
                s.cpu_secs()
                    .map_err(|e| format!("{} CPU clock: {e}", s.name))
            })
            .sum()
    }

    /// Kill and reap every server.
    pub fn stop(&mut self) {
        for s in &mut self.servers {
            let _ = s.child.kill();
            let _ = s.child.wait();
        }
        self.servers.clear();
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        self.stop();
    }
}

/// A fresh directory for one run's data dirs and logs, removed on drop.
pub struct RunDir {
    pub path: PathBuf,
}

impl RunDir {
    pub fn create(root: &Path, tag: &str) -> Result<Self, String> {
        let nanos = std::time::SystemTime::now()
            .duration_since(std::time::UNIX_EPOCH)
            .map(|d| d.as_nanos())
            .unwrap_or(0);
        let path = root.join(format!("{tag}-{}-{nanos}", std::process::id()));
        std::fs::create_dir_all(&path).map_err(|e| format!("{}: {e}", path.display()))?;
        Ok(RunDir { path })
    }

    /// A new, empty subdirectory.
    pub fn sub(&self, name: &str) -> Result<PathBuf, String> {
        let p = self.path.join(name);
        std::fs::create_dir_all(&p).map_err(|e| format!("{}: {e}", p.display()))?;
        Ok(p)
    }
}

impl Drop for RunDir {
    fn drop(&mut self) {
        let _ = std::fs::remove_dir_all(&self.path);
    }
}
