//! Guest outcomes pinned in `expected.txt`: each benign guest's exit
//! status and the FNV-1a 64 digest of its stdout.

use crate::seed::fnv64;

const PINNED: &str = include_str!("../expected.txt");

/// The pinned outcome of every benign guest the workloads run.
pub struct Expected(Vec<(String, u32, u64)>);

impl Expected {
    /// Parses `expected.txt` (compiled in). Lines are
    /// `<name> <exit status> <stdout digest in hex>`; `#` starts a comment.
    pub fn load() -> Expected {
        let rows = PINNED
            .lines()
            .map(|l| l.split('#').next().unwrap_or("").trim())
            .filter(|l| !l.is_empty())
            .map(|l| {
                let f: Vec<&str> = l.split_whitespace().collect();
                assert_eq!(f.len(), 3, "expected.txt line `{l}` has three fields");
                let exit = f[1].parse().expect("exit status is a number");
                let digest = u64::from_str_radix(f[2], 16).expect("digest is hex");
                (f[0].to_string(), exit, digest)
            })
            .collect();
        Expected(rows)
    }

    /// Checks one benign guest: `exit` is its exit status, or `None` when
    /// it did not exit normally (`how` then says why).
    pub fn check(
        &self,
        name: &str,
        exit: Option<u32>,
        how: &str,
        stdout: &[u8],
    ) -> Result<(), String> {
        let digest = fnv64(stdout);
        let (_, want_exit, want_digest) =
            self.0.iter().find(|(n, _, _)| n == name).ok_or_else(|| {
                format!("{name}: no pinned outcome in expected.txt (ran: exit {exit:?} stdout {digest:016x})")
            })?;
        match exit {
            Some(code) if code == *want_exit && digest == *want_digest => Ok(()),
            Some(code) => Err(format!(
                "{name}: exit {code} stdout {digest:016x}, pinned exit {want_exit} stdout {want_digest:016x}"
            )),
            None => Err(format!("{name}: did not exit: {how}")),
        }
    }
}
