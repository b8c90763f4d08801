//! Rotates the measuring thread over the CPUs the process may use.
//!
//! On a shared host each CPU has stretches in which other tenants halve
//! its speed, and those stretches differ from CPU to CPU. A thread left on
//! one CPU can spend a whole run in one; a thread that takes turns on
//! every allowed CPU sees the fast stretches of each. The thread is moved
//! with `taskset` between calls, never during one, and one call at a time
//! still runs. Without `taskset` or with a single allowed CPU the thread
//! stays where the scheduler puts it.

use std::process::{Command, Stdio};

/// The allowed CPUs of this thread and the means to move it among them.
/// Dropping it gives the thread back every CPU it was allowed at the
/// start.
#[derive(Debug)]
pub struct Rotation {
    tid: String,
    allowed: String,
    cpus: Vec<usize>,
}

impl Rotation {
    /// The rotation of the calling thread, or `None` when it may use a
    /// single CPU or cannot be moved.
    #[must_use]
    pub fn of_this_thread() -> Option<Self> {
        let link = std::fs::read_link("/proc/thread-self").ok()?;
        let tid = link.file_name()?.to_str()?.to_owned();
        let status = std::fs::read_to_string("/proc/thread-self/status").ok()?;
        let allowed = status
            .lines()
            .find_map(|l| l.strip_prefix("Cpus_allowed_list:"))?
            .trim()
            .to_owned();
        let cpus = parse_cpu_list(&allowed)?;
        let rotation = Self { tid, allowed, cpus };
        (rotation.cpus.len() > 1 && rotation.set(&rotation.allowed)).then_some(rotation)
    }

    /// Pins the thread to the CPU whose turn `turn` is.
    pub fn pin(&self, turn: usize) {
        let cpu = self.cpus[turn % self.cpus.len()];
        if !self.set(&cpu.to_string()) {
            eprintln!("perfbench: could not pin to CPU {cpu}");
        }
    }

    fn set(&self, list: &str) -> bool {
        Command::new("taskset")
            .args(["-p", "-c", list, &self.tid])
            .stdin(Stdio::null())
            .stdout(Stdio::null())
            .stderr(Stdio::null())
            .status()
            .is_ok_and(|s| s.success())
    }
}

impl Drop for Rotation {
    fn drop(&mut self) {
        if !self.set(&self.allowed) {
            eprintln!(
                "perfbench: could not restore CPUs {} of thread {}",
                self.allowed, self.tid
            );
        }
    }
}

/// Parses a kernel CPU list such as `0-3,8,10-11`.
fn parse_cpu_list(list: &str) -> Option<Vec<usize>> {
    let mut cpus = Vec::new();
    for part in list.split(',').filter(|p| !p.is_empty()) {
        match part.split_once('-') {
            Some((a, b)) => cpus.extend(a.parse::<usize>().ok()?..=b.parse().ok()?),
            None => cpus.push(part.parse().ok()?),
        }
    }
    Some(cpus)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn cpu_lists_parse() {
        assert_eq!(parse_cpu_list("0-1"), Some(vec![0, 1]));
        assert_eq!(parse_cpu_list("0,2-4,7"), Some(vec![0, 2, 3, 4, 7]));
        assert_eq!(parse_cpu_list("3"), Some(vec![3]));
        assert_eq!(parse_cpu_list("x"), None);
    }
}
