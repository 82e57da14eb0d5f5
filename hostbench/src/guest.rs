//! The `syscall-loop` guest: a Table-4-style loop generated in assembly
//! from the workload seed.
//!
//! Each iteration makes 32 calls: four `getpid`, four `gettimeofday`, four
//! open/`read`/close groups on input files and four open/`write`/close
//! groups on output files. The `open` paths are string constants, so the
//! installer turns them into authenticated strings and every `open` runs
//! the string check. The seed shuffles the order of the sixteen groups,
//! which path each group opens and which size each `read` and `write`
//! moves. It never changes the amount of work: the paths and sizes are
//! fixed ladders, dealt out in a seeded order, so one seed's pass costs
//! the same as another's and a seed change does not read as a regression.
//! The guest checks every `read`, `write` and `close` result and exits
//! non-zero on the first mismatch.

use std::fmt::Write;

use asc_kernel::FileSystem;

use crate::seed::Rng;

/// Loop iterations per pass.
pub const ITERATIONS: u32 = 1500;

/// Input files, one per length class of the authenticated path string.
const INPUTS: [&str; 4] = [
    "/data/a",
    "/data/input-b.bin",
    "/data/a-longer-input-file-c.bin",
    "/data/an-even-longer-input-file-name-for-d.bin",
];
/// Output files, likewise.
const OUTPUTS: [&str; 4] = [
    "/out/w",
    "/out/output-x.bin",
    "/out/a-longer-output-file-y.bin",
    "/out/an-even-longer-output-file-name-for-z.bin",
];
const READ_SIZES: [usize; 4] = [64, 512, 2048, 4096];
const WRITE_SIZES: [usize; 4] = [128, 1024, 2048, 4096];
/// Size of every input file and of the guest's I/O buffer.
const FILE_LEN: usize = 4096;
/// What the guest prints once every iteration has passed its checks.
const DONE: &str = "loop ok\n";

#[derive(Clone, Copy, Debug)]
enum Group {
    Getpid,
    Gettimeofday,
    Read { path: usize, len: usize },
    Write { path: usize, len: usize },
}

/// One generated loop guest with its input files.
pub struct LoopGuest {
    /// Assembly source.
    pub source: String,
    body: Vec<Group>,
    inputs: Vec<Vec<u8>>,
}

impl LoopGuest {
    /// Generates the guest and its inputs from `seed`.
    pub fn generate(seed: u64) -> LoopGuest {
        let mut rng = Rng::new(seed);
        let mut deal = |ladder: [usize; 4]| {
            let mut v = ladder;
            rng.shuffle(&mut v);
            v
        };
        let (read_paths, read_lens) = (deal([0, 1, 2, 3]), deal(READ_SIZES));
        let (write_paths, write_lens) = (deal([0, 1, 2, 3]), deal(WRITE_SIZES));
        let mut body = Vec::new();
        for i in 0..4 {
            body.push(Group::Getpid);
            body.push(Group::Gettimeofday);
            body.push(Group::Read {
                path: read_paths[i],
                len: read_lens[i],
            });
            body.push(Group::Write {
                path: write_paths[i],
                len: write_lens[i],
            });
        }
        rng.shuffle(&mut body);
        let inputs = (0..INPUTS.len())
            .map(|_| {
                (0..FILE_LEN / 8)
                    .flat_map(|_| rng.next_u64().to_le_bytes())
                    .collect()
            })
            .collect();
        LoopGuest {
            source: render(&body),
            body,
            inputs,
        }
    }

    /// The guest's file system: the seeded input files and an empty
    /// output directory.
    pub fn fixture_fs(&self) -> FileSystem {
        let mut fs = FileSystem::new();
        fs.mkdir("/data", 0o755).expect("fresh fs takes /data");
        fs.mkdir("/out", 0o755).expect("fresh fs takes /out");
        for (path, data) in INPUTS.iter().zip(&self.inputs) {
            fs.write_file(path, data.clone())
                .expect("fresh fs takes the inputs");
        }
        fs
    }

    /// System calls one pass traps: 32 per iteration, then the final
    /// `write` and `exit`.
    pub fn traps(&self) -> u64 {
        let per_iteration: u64 = self
            .body
            .iter()
            .map(|g| match g {
                Group::Getpid | Group::Gettimeofday => 1,
                Group::Read { .. } | Group::Write { .. } => 3,
            })
            .sum();
        per_iteration * u64::from(ITERATIONS) + 2
    }

    /// Checks every output file against a replay of the loop body: each
    /// holds the first `len` bytes of the I/O buffer as the last iteration
    /// left it when the file was written.
    pub fn check_outputs(&self, fs: &FileSystem) -> Result<(), String> {
        let mut buf = vec![0u8; FILE_LEN];
        let mut expected: [Option<Vec<u8>>; 4] = Default::default();
        // Every body holds a full-buffer read, so after one iteration the
        // buffer no longer depends on earlier ones: replaying two
        // iterations reproduces the last.
        for _ in 0..ITERATIONS.min(2) {
            for group in &self.body {
                match *group {
                    Group::Read { path, len } => {
                        buf[..len].copy_from_slice(&self.inputs[path][..len])
                    }
                    Group::Write { path, len } => expected[path] = Some(buf[..len].to_vec()),
                    Group::Getpid | Group::Gettimeofday => {}
                }
            }
        }
        for (path, want) in OUTPUTS.iter().zip(&expected) {
            let want = want.as_deref().expect("every output path has a writer");
            match fs.read_file(path) {
                Ok(got) if got == want => {}
                Ok(got) => {
                    return Err(format!(
                        "{path}: {} bytes differ from the {} expected",
                        got.len(),
                        want.len()
                    ))
                }
                Err(e) => return Err(format!("{path}: {e:?}")),
            }
        }
        Ok(())
    }
}

/// Renders the loop in assembly. Loop state lives in `r4`–`r6`, which the
/// installer's rewrite of a call site leaves alone.
fn render(body: &[Group]) -> String {
    let mut s = String::from(
        "
    .text
    .entry main
main:
    movi r4, 0
loop:
",
    );
    for group in body {
        match *group {
            Group::Getpid => s.push_str("    movi r0, 20\n    syscall\n"),
            Group::Gettimeofday => {
                s.push_str("    movi r1, tv\n    movi r2, 0\n    movi r0, 78\n    syscall\n")
            }
            Group::Read { path, len } => io_group(&mut s, &format!("in{path}"), "0", "0", 3, len),
            Group::Write { path, len } => {
                io_group(&mut s, &format!("out{path}"), "0x241", "0x1b6", 4, len)
            }
        }
    }
    let _ = write!(
        s,
        "    addi r4, r4, 1
    movi r5, {ITERATIONS}
    bne r4, r5, loop
    movi r0, 4
    movi r1, 1
    movi r2, done
    movi r3, {done_len}
    syscall
    movi r0, 1
    movi r1, 0
    syscall
fail_io:
    movi r0, 1
    movi r1, 2
    syscall
fail_close:
    movi r0, 1
    movi r1, 3
    syscall
    .rodata
done: .asciz \"{done}\"
",
        done_len = DONE.len(),
        done = DONE.escape_default(),
    );
    for (i, p) in INPUTS.iter().enumerate() {
        let _ = writeln!(s, "in{i}: .asciz \"{p}\"");
    }
    for (i, p) in OUTPUTS.iter().enumerate() {
        let _ = writeln!(s, "out{i}: .asciz \"{p}\"");
    }
    let _ = write!(s, "    .bss\ntv: .space 16\nbuf: .space {FILE_LEN}\n");
    s
}

/// Appends `open(path, flags, mode)`, then call `nr` (`read` or `write`)
/// of `len` bytes between the descriptor and `buf`, then `close`; the
/// transfer must return `len` and the close 0.
fn io_group(s: &mut String, path: &str, flags: &str, mode: &str, nr: u32, len: usize) {
    let _ = write!(
        s,
        "    movi r0, 5
    movi r1, {path}
    movi r2, {flags}
    movi r3, {mode}
    syscall
    mov r6, r0
    movi r0, {nr}
    mov r1, r6
    movi r2, buf
    movi r3, {len}
    syscall
    movi r5, {len}
    bne r0, r5, fail_io
    movi r0, 6
    mov r1, r6
    syscall
    movi r5, 0
    bne r0, r5, fail_close
"
    );
}
