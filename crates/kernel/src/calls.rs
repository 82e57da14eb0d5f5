//! System call semantics.
//!
//! Each call implements just enough behaviour for the guest workloads and
//! the paper's experiments; returns use the negative-errno convention.

use asc_isa::Reg;
use asc_vm::{TrapContext, TrapOutcome};

use crate::abi::SyscallId;
use crate::fs::{FsError, InodeKind};
use crate::kernel::{FdKind, Kernel, OpenFile};

/// Open flags understood by the simulated kernel.
pub mod oflags {
    /// Read only.
    pub const O_RDONLY: u32 = 0;
    /// Write only.
    pub const O_WRONLY: u32 = 1;
    /// Read and write.
    pub const O_RDWR: u32 = 2;
    /// Create if missing.
    pub const O_CREAT: u32 = 0x40;
    /// Truncate on open.
    pub const O_TRUNC: u32 = 0x200;
    /// Append on every write.
    pub const O_APPEND: u32 = 0x400;
}

const EBADF: u32 = (-9i32) as u32;
const EFAULT: u32 = (-14i32) as u32;
const EINVAL: u32 = (-22i32) as u32;
const ENOSYS: u32 = (-38i32) as u32;

fn errno(e: FsError) -> u32 {
    e.errno()
}

impl Kernel {
    fn read_path(&self, ctx: &TrapContext<'_>, addr: u32) -> Result<String, u32> {
        let bytes = ctx.mem.kread_cstr(addr, 1024).map_err(|_| EFAULT)?;
        String::from_utf8(bytes).map_err(|_| EINVAL)
    }

    /// Dispatches one (indirection-resolved) system call. Sets `R0` to the
    /// return value unless the outcome ends the process.
    pub(crate) fn dispatch(
        &mut self,
        id: SyscallId,
        args: [u32; 6],
        ctx: &mut TrapContext<'_>,
    ) -> TrapOutcome {
        self.last_io_bytes = 0;
        self.time_us += 3;
        use SyscallId::*;
        let ret: u32 = match id {
            Exit => return TrapOutcome::Exit(args[0]),
            Execve => match self.read_path(ctx, args[0]) {
                Ok(path) => {
                    self.exec_requests.push(path);
                    // The simulator records rather than chain-loads; the
                    // process ends as if replaced.
                    return TrapOutcome::Exit(0);
                }
                Err(e) => e,
            },
            Read | Readv | Recvfrom | Getdents | Getdirentries => {
                self.sys_read_family(id, args, ctx)
            }
            Write | Writev | Sendto => self.sys_write_family(id, args, ctx),
            Open => self.sys_open(args[0], args[1], args[2], ctx),
            Creat => self.sys_open(
                args[0],
                oflags::O_WRONLY | oflags::O_CREAT | oflags::O_TRUNC,
                args[1],
                ctx,
            ),
            Close => self.sys_close(args[0]),
            Lseek => self.sys_lseek(args[0], args[1], args[2]),
            Getpid => 1,
            Getppid => 0,
            Getuid | Geteuid => 1000,
            Getgid | Getegid => 100,
            Getpgrp => 1,
            Setsid | Setpgid | Setuid | Setgid | Nice => 0,
            Umask => {
                let old = self.umask;
                self.umask = args[0] & 0o777;
                old
            }
            Brk => self.sys_brk(args[0], ctx),
            Mmap => self.sys_mmap(args[1], ctx),
            Munmap => 0,
            Madvise => 0,
            Time => {
                let secs = (self.time_us / 1_000_000) as u32;
                if args[0] != 0 && ctx.mem.kwrite(args[0], &secs.to_le_bytes()).is_err() {
                    EFAULT
                } else {
                    secs
                }
            }
            Gettimeofday | ClockGettime => {
                let secs = (self.time_us / 1_000_000) as u32;
                let micros = (self.time_us % 1_000_000) as u32;
                let mut buf = [0u8; 8];
                buf[..4].copy_from_slice(&secs.to_le_bytes());
                buf[4..].copy_from_slice(&micros.to_le_bytes());
                match ctx
                    .mem
                    .kwrite(args[if id == Gettimeofday { 0 } else { 1 }], &buf)
                {
                    Ok(()) => 0,
                    Err(_) => EFAULT,
                }
            }
            Settimeofday => 0,
            Nanosleep => {
                // req = {secs, nanos}; advance simulated time.
                match ctx.mem.kread(args[0], 8) {
                    Ok(b) => {
                        let secs = u32::from_le_bytes(b[..4].try_into().expect("4"));
                        let nanos = u32::from_le_bytes(b[4..].try_into().expect("4"));
                        self.time_us += secs as u64 * 1_000_000 + nanos as u64 / 1000;
                        0
                    }
                    Err(_) => EFAULT,
                }
            }
            Alarm | Pause | Sync | SchedYield | Poll => 0,
            Kill => {
                // Signalling self with 0 probes; any real signal to self is
                // accepted (no async delivery in the simulator).
                if args[0] <= 1 {
                    0
                } else {
                    (-3i32) as u32 // ESRCH
                }
            }
            Sigaction | Sigsuspend | Sigpending => 0,
            Chdir => match self.read_path(ctx, args[0]) {
                Ok(p) => match self.fs.normalize(&p, &self.cwd) {
                    Ok(canon) => match self.fs.resolve(&canon, "/") {
                        Ok(id) if matches!(self.fs.inode(id).kind, InodeKind::Dir(_)) => {
                            self.cwd = canon;
                            0
                        }
                        Ok(_) => errno(FsError::NotADirectory),
                        Err(e) => errno(e),
                    },
                    Err(e) => errno(e),
                },
                Err(e) => e,
            },
            Chroot => 0,
            Mkdir => self.path_op(ctx, args[0], |k, p| {
                k.fs.create(&p, &k.cwd, InodeKind::Dir(Default::default()), 0o755)
                    .map(|_| 0)
            }),
            Rmdir => self.path_op(ctx, args[0], |k, p| {
                let cwd = k.cwd.clone();
                k.fs.rmdir(&p, &cwd).map(|_| 0)
            }),
            Unlink => self.path_op(ctx, args[0], |k, p| {
                let cwd = k.cwd.clone();
                k.fs.unlink(&p, &cwd).map(|_| 0)
            }),
            Link => self.path2_op(ctx, args[0], args[1], |k, a, b| {
                let cwd = k.cwd.clone();
                k.fs.link(&a, &b, &cwd).map(|_| 0)
            }),
            Symlink => self.path2_op(ctx, args[0], args[1], |k, a, b| {
                let cwd = k.cwd.clone();
                k.fs.symlink(&a, &b, &cwd).map(|_| 0)
            }),
            Rename => self.path2_op(ctx, args[0], args[1], |k, a, b| {
                let cwd = k.cwd.clone();
                k.fs.rename(&a, &b, &cwd).map(|_| 0)
            }),
            Readlink => match self.read_path(ctx, args[0]) {
                Ok(p) => match self.fs.resolve_nofollow(&p, &self.cwd) {
                    Ok(id) => match &self.fs.inode(id).kind {
                        InodeKind::Symlink(target) => {
                            let n = target.len().min(args[2] as usize);
                            match ctx.mem.kwrite(args[1], &target.as_bytes()[..n]) {
                                Ok(()) => n as u32,
                                Err(_) => EFAULT,
                            }
                        }
                        _ => EINVAL,
                    },
                    Err(e) => errno(e),
                },
                Err(e) => e,
            },
            Chmod | Utime | Lchown | Mknod => self.path_op(ctx, args[0], |k, p| {
                let cwd = k.cwd.clone();
                k.fs.resolve(&p, &cwd).map(|_| 0)
            }),
            Fchmod | Fchown | Ftruncate => {
                if self.fd(args[0]).is_some() {
                    if id == Ftruncate {
                        self.sys_truncate_fd(args[0], args[1])
                    } else {
                        0
                    }
                } else {
                    EBADF
                }
            }
            Truncate => match self.read_path(ctx, args[0]) {
                Ok(p) => match self.fs.resolve(&p, &self.cwd) {
                    Ok(inode) => match &mut self.fs.inode_mut(inode).kind {
                        InodeKind::File(data) => {
                            data.resize(args[1] as usize, 0);
                            0
                        }
                        _ => errno(FsError::IsADirectory),
                    },
                    Err(e) => errno(e),
                },
                Err(e) => e,
            },
            Stat | Lstat => self.sys_stat(id, args[0], args[1], ctx),
            Fstat => self.sys_fstat(args[0], args[1], ctx),
            Access => self.path_op(ctx, args[0], |k, p| {
                let cwd = k.cwd.clone();
                k.fs.resolve(&p, &cwd).map(|_| 0)
            }),
            Statfs | Fstatfs => {
                // Write a fixed 32-byte statfs structure.
                let buf = [0x42u8; 32];
                match ctx.mem.kwrite(args[1], &buf) {
                    Ok(()) => 0,
                    Err(_) => EFAULT,
                }
            }
            Dup => match self.fds.get(args[0] as usize).cloned().flatten() {
                Some(f) => self.alloc_fd(f),
                None => EBADF,
            },
            Dup2 => match self.fds.get(args[0] as usize).cloned().flatten() {
                Some(f) => {
                    let target = args[1] as usize;
                    if target >= 1024 {
                        EBADF
                    } else {
                        if target >= self.fds.len() {
                            self.fds.resize(target + 1, None);
                        }
                        self.fds[target] = Some(f);
                        args[1]
                    }
                }
                None => EBADF,
            },
            Pipe => {
                self.pipes.push(Default::default());
                let idx = self.pipes.len() - 1;
                let r = self.alloc_fd(OpenFile {
                    kind: FdKind::PipeRead(idx),
                    pos: 0,
                    flags: 0,
                });
                let w = self.alloc_fd(OpenFile {
                    kind: FdKind::PipeWrite(idx),
                    pos: 0,
                    flags: 1,
                });
                let mut buf = [0u8; 8];
                buf[..4].copy_from_slice(&r.to_le_bytes());
                buf[4..].copy_from_slice(&w.to_le_bytes());
                match ctx.mem.kwrite(args[0], &buf) {
                    Ok(()) => 0,
                    Err(_) => EFAULT,
                }
            }
            Fcntl | Ioctl => {
                if self.fd(args[0]).is_some() {
                    0
                } else {
                    EBADF
                }
            }
            Socket => {
                self.sockets.push(Vec::new());
                self.alloc_fd(OpenFile {
                    kind: FdKind::Socket(self.sockets.len() - 1),
                    pos: 0,
                    flags: 2,
                })
            }
            Connect | Bind | Listen | Shutdown | Setsockopt | Getsockopt => {
                if self.fd(args[0]).is_some() {
                    0
                } else {
                    EBADF
                }
            }
            Accept => match self.fd(args[0]).map(|f| f.kind.clone()) {
                Some(FdKind::Socket(_)) => {
                    self.sockets.push(Vec::new());
                    self.alloc_fd(OpenFile {
                        kind: FdKind::Socket(self.sockets.len() - 1),
                        pos: 0,
                        flags: 2,
                    })
                }
                _ => EBADF,
            },
            Uname => {
                let sysname: &[u8] = match self.opts.personality {
                    crate::abi::Personality::Linux => b"SVMLinux\0",
                    crate::abi::Personality::OpenBsd => b"SVMBSD\0\0\0",
                };
                let mut buf = [0u8; 32];
                buf[..sysname.len()].copy_from_slice(sysname);
                buf[16..16 + self.hostname.len().min(15)]
                    .copy_from_slice(&self.hostname.as_bytes()[..self.hostname.len().min(15)]);
                match ctx.mem.kwrite(args[0], &buf) {
                    Ok(()) => 0,
                    Err(_) => EFAULT,
                }
            }
            Sethostname => match ctx.mem.kread(args[0], args[1].min(64)) {
                Ok(b) => {
                    self.hostname = String::from_utf8_lossy(&b).into_owned();
                    0
                }
                Err(_) => EFAULT,
            },
            Times | Getrusage | Getrlimit => {
                let buf = [0u8; 16];
                let ptr = if id == Times { args[0] } else { args[1] };
                if ptr == 0 {
                    0
                } else {
                    match ctx.mem.kwrite(ptr, &buf) {
                        Ok(()) => 0,
                        Err(_) => EFAULT,
                    }
                }
            }
            Setrlimit => 0,
            Sysconf => match args[0] {
                0 => 4096, // _SC_PAGESIZE
                1 => 1024, // _SC_OPEN_MAX
                2 => 100,  // _SC_CLK_TCK
                _ => EINVAL,
            },
            Fork | Waitpid => ENOSYS,
            IndirectSyscall => ENOSYS, // double indirection rejected earlier
        };
        ctx.set_reg(Reg::R0, ret);
        TrapOutcome::Continue
    }

    fn path_op(
        &mut self,
        ctx: &TrapContext<'_>,
        addr: u32,
        f: impl FnOnce(&mut Kernel, String) -> Result<u32, FsError>,
    ) -> u32 {
        match self.read_path(ctx, addr) {
            Ok(p) => f(self, p).unwrap_or_else(errno),
            Err(e) => e,
        }
    }

    fn path2_op(
        &mut self,
        ctx: &TrapContext<'_>,
        addr_a: u32,
        addr_b: u32,
        f: impl FnOnce(&mut Kernel, String, String) -> Result<u32, FsError>,
    ) -> u32 {
        match (self.read_path(ctx, addr_a), self.read_path(ctx, addr_b)) {
            (Ok(a), Ok(b)) => f(self, a, b).unwrap_or_else(errno),
            (Err(e), _) | (_, Err(e)) => e,
        }
    }

    fn sys_open(&mut self, path_addr: u32, flags: u32, _mode: u32, ctx: &TrapContext<'_>) -> u32 {
        let path = match self.read_path(ctx, path_addr) {
            Ok(p) => p,
            Err(e) => return e,
        };
        // §5.4: resolve through symlinks to the canonical name first.
        let canon = match self.fs.normalize(&path, &self.cwd) {
            Ok(c) => c,
            Err(FsError::NotFound) if flags & oflags::O_CREAT != 0 => {
                // Create the file.
                match self
                    .fs
                    .create(&path, &self.cwd, InodeKind::File(Vec::new()), 0o666)
                {
                    Ok(id) => {
                        return self.alloc_fd(OpenFile {
                            kind: FdKind::File(id),
                            pos: 0,
                            flags,
                        })
                    }
                    Err(e) => return errno(e),
                }
            }
            Err(e) => return errno(e),
        };
        match canon.as_str() {
            "/dev/null" => {
                return self.alloc_fd(OpenFile {
                    kind: FdKind::Null,
                    pos: 0,
                    flags,
                });
            }
            "/dev/console" => {
                return self.alloc_fd(OpenFile {
                    kind: FdKind::Console,
                    pos: 0,
                    flags,
                });
            }
            _ => {}
        }
        let inode = match self.fs.resolve(&canon, "/") {
            Ok(i) => i,
            Err(e) => return errno(e),
        };
        match &mut self.fs.inode_mut(inode).kind {
            InodeKind::File(data) => {
                if flags & oflags::O_TRUNC != 0 {
                    data.clear();
                }
                self.alloc_fd(OpenFile {
                    kind: FdKind::File(inode),
                    pos: 0,
                    flags,
                })
            }
            InodeKind::Dir(_) => {
                if flags & 0x3 != oflags::O_RDONLY {
                    errno(FsError::IsADirectory)
                } else {
                    self.alloc_fd(OpenFile {
                        kind: FdKind::Dir(inode),
                        pos: 0,
                        flags,
                    })
                }
            }
            InodeKind::Symlink(_) => EINVAL, // normalize() should have followed
        }
    }

    fn sys_close(&mut self, fd: u32) -> u32 {
        match self.fds.get_mut(fd as usize) {
            Some(slot @ Some(_)) => {
                *slot = None;
                0
            }
            _ => EBADF,
        }
    }

    fn sys_lseek(&mut self, fd: u32, off: u32, whence: u32) -> u32 {
        let size = match self.fd(fd).map(|f| f.kind.clone()) {
            Some(FdKind::File(inode)) => match &self.fs.inode(inode).kind {
                InodeKind::File(d) => d.len() as u64,
                _ => 0,
            },
            Some(_) => 0,
            None => return EBADF,
        };
        let Some(file) = self.fd(fd) else {
            return EBADF;
        };
        let off = off as i32 as i64;
        let new = match whence {
            0 => off,                   // SEEK_SET
            1 => file.pos as i64 + off, // SEEK_CUR
            2 => size as i64 + off,     // SEEK_END
            _ => return EINVAL,
        };
        if new < 0 {
            return EINVAL;
        }
        file.pos = new as u64;
        new as u32
    }

    fn sys_brk(&mut self, addr: u32, ctx: &mut TrapContext<'_>) -> u32 {
        if addr == 0 {
            return self.brk;
        }
        if addr > self.brk {
            // Map new heap pages RW.
            ctx.mem
                .protect(self.brk, addr - self.brk, asc_vm::PageFlags::RW);
        }
        self.brk = addr;
        self.brk
    }

    fn sys_mmap(&mut self, len: u32, ctx: &mut TrapContext<'_>) -> u32 {
        let len = len.max(1).div_ceil(0x1000) * 0x1000;
        let addr = self.mmap_cursor;
        self.mmap_cursor += len;
        ctx.mem.protect(addr, len, asc_vm::PageFlags::RW);
        addr
    }

    fn sys_truncate_fd(&mut self, fd: u32, len: u32) -> u32 {
        match self.fd(fd).map(|f| f.kind.clone()) {
            Some(FdKind::File(inode)) => match &mut self.fs.inode_mut(inode).kind {
                InodeKind::File(data) => {
                    data.resize(len as usize, 0);
                    0
                }
                _ => EINVAL,
            },
            Some(_) => EINVAL,
            None => EBADF,
        }
    }

    fn sys_stat(
        &mut self,
        id: SyscallId,
        path_addr: u32,
        buf: u32,
        ctx: &mut TrapContext<'_>,
    ) -> u32 {
        let path = match self.read_path(ctx, path_addr) {
            Ok(p) => p,
            Err(e) => return e,
        };
        let inode = match if id == SyscallId::Lstat {
            self.fs.resolve_nofollow(&path, &self.cwd)
        } else {
            self.fs.resolve(&path, &self.cwd)
        } {
            Ok(i) => i,
            Err(e) => return errno(e),
        };
        self.write_stat(inode, buf, ctx)
    }

    fn sys_fstat(&mut self, fd: u32, buf: u32, ctx: &mut TrapContext<'_>) -> u32 {
        match self.fd(fd).map(|f| f.kind.clone()) {
            Some(FdKind::File(inode)) | Some(FdKind::Dir(inode)) => {
                self.write_stat(inode, buf, ctx)
            }
            Some(_) => {
                // Character devices / sockets: zeroed stat.
                match ctx.mem.kwrite(buf, &[0u8; 16]) {
                    Ok(()) => 0,
                    Err(_) => EFAULT,
                }
            }
            None => EBADF,
        }
    }

    /// stat layout: {kind u32 (0=file,1=dir,2=link), size u32, mode u32,
    /// mtime u32}.
    fn write_stat(
        &mut self,
        inode: crate::fs::InodeId,
        buf: u32,
        ctx: &mut TrapContext<'_>,
    ) -> u32 {
        let node = self.fs.inode(inode);
        let (kind, size) = match &node.kind {
            InodeKind::File(d) => (0u32, d.len() as u32),
            InodeKind::Dir(e) => (1, e.len() as u32),
            InodeKind::Symlink(t) => (2, t.len() as u32),
        };
        let mut out = [0u8; 16];
        out[..4].copy_from_slice(&kind.to_le_bytes());
        out[4..8].copy_from_slice(&size.to_le_bytes());
        out[8..12].copy_from_slice(&node.mode.to_le_bytes());
        out[12..].copy_from_slice(&(node.mtime as u32).to_le_bytes());
        match ctx.mem.kwrite(buf, &out) {
            Ok(()) => 0,
            Err(_) => EFAULT,
        }
    }

    fn sys_read_family(&mut self, id: SyscallId, args: [u32; 6], ctx: &mut TrapContext<'_>) -> u32 {
        use SyscallId::*;
        match id {
            Read | Recvfrom => self.sys_read(args[0], args[1], args[2], ctx),
            Readv => {
                // iovec: {ptr u32, len u32} * count
                let mut total = 0u32;
                for i in 0..args[2] {
                    let base = args[1] + i * 8;
                    let (ptr, len) = match (ctx.mem.kread_u32(base), ctx.mem.kread_u32(base + 4)) {
                        (Ok(p), Ok(l)) => (p, l),
                        _ => return EFAULT,
                    };
                    let n = self.sys_read(args[0], ptr, len, ctx);
                    if (n as i32) < 0 {
                        return n;
                    }
                    total += n;
                    if n < len {
                        break;
                    }
                }
                total
            }
            Getdents | Getdirentries => self.sys_getdents(args[0], args[1], args[2], ctx),
            _ => unreachable!(),
        }
    }

    fn sys_read(&mut self, fd: u32, buf: u32, len: u32, ctx: &mut TrapContext<'_>) -> u32 {
        let len = len.min(1 << 20);
        let kind = match self.fd(fd) {
            Some(f) => f.kind.clone(),
            None => return EBADF,
        };
        let data: Vec<u8> = match kind {
            FdKind::Stdin => {
                let n = (self.stdin.len() - self.stdin_pos).min(len as usize);
                let out = self.stdin[self.stdin_pos..self.stdin_pos + n].to_vec();
                self.stdin_pos += n;
                out
            }
            FdKind::File(inode) => {
                let pos = self.fd(fd).expect("checked").pos as usize;
                match &self.fs.inode(inode).kind {
                    InodeKind::File(d) => {
                        let n = d.len().saturating_sub(pos).min(len as usize);
                        let out = d[pos..pos + n].to_vec();
                        self.fd(fd).expect("checked").pos = (pos + n) as u64;
                        out
                    }
                    _ => return errno(FsError::IsADirectory),
                }
            }
            FdKind::Socket(idx) => {
                let sock = &mut self.sockets[idx];
                let n = sock.len().min(len as usize);
                sock.drain(..n).collect()
            }
            FdKind::PipeRead(idx) => {
                let pipe = &mut self.pipes[idx];
                let n = pipe.len().min(len as usize);
                pipe.drain(..n).collect()
            }
            FdKind::Null | FdKind::Console => Vec::new(),
            FdKind::Stdout | FdKind::Stderr | FdKind::PipeWrite(_) | FdKind::Dir(_) => {
                return EBADF
            }
        };
        if !data.is_empty() && ctx.mem.kwrite(buf, &data).is_err() {
            return EFAULT;
        }
        self.last_io_bytes = data.len() as u64;
        data.len() as u32
    }

    fn sys_write_family(
        &mut self,
        id: SyscallId,
        args: [u32; 6],
        ctx: &mut TrapContext<'_>,
    ) -> u32 {
        use SyscallId::*;
        match id {
            Write | Sendto => self.sys_write(args[0], args[1], args[2], ctx),
            Writev => {
                let mut total = 0u32;
                for i in 0..args[2] {
                    let base = args[1] + i * 8;
                    let (ptr, len) = match (ctx.mem.kread_u32(base), ctx.mem.kread_u32(base + 4)) {
                        (Ok(p), Ok(l)) => (p, l),
                        _ => return EFAULT,
                    };
                    let n = self.sys_write(args[0], ptr, len, ctx);
                    if (n as i32) < 0 {
                        return n;
                    }
                    total += n;
                }
                self.last_io_bytes = total as u64;
                total
            }
            _ => unreachable!(),
        }
    }

    fn sys_write(&mut self, fd: u32, buf: u32, len: u32, ctx: &mut TrapContext<'_>) -> u32 {
        let len = len.min(1 << 20);
        let data = match ctx.mem.kread(buf, len) {
            Ok(d) => d,
            Err(_) => return EFAULT,
        };
        let kind = match self.fd(fd) {
            Some(f) => f.kind.clone(),
            None => return EBADF,
        };
        match kind {
            FdKind::Stdout => self.stdout.extend_from_slice(&data),
            FdKind::Stderr => self.stderr.extend_from_slice(&data),
            FdKind::Console => self.console.extend_from_slice(&data),
            FdKind::Null => {}
            FdKind::File(inode) => {
                let (pos, append) = {
                    let f = self.fd(fd).expect("checked");
                    (f.pos as usize, f.flags & oflags::O_APPEND != 0)
                };
                match &mut self.fs.inode_mut(inode).kind {
                    InodeKind::File(d) => {
                        let pos = if append { d.len() } else { pos };
                        if d.len() < pos + data.len() {
                            d.resize(pos + data.len(), 0);
                        }
                        d[pos..pos + data.len()].copy_from_slice(&data);
                        self.fd(fd).expect("checked").pos = (pos + data.len()) as u64;
                    }
                    _ => return errno(FsError::IsADirectory),
                }
            }
            FdKind::Socket(idx) => self.sockets[idx].extend_from_slice(&data),
            FdKind::PipeWrite(idx) => self.pipes[idx].extend(data.iter().copied()),
            FdKind::Stdin | FdKind::PipeRead(_) | FdKind::Dir(_) => return EBADF,
        }
        self.last_io_bytes = data.len() as u64;
        data.len() as u32
    }

    /// Directory entries are written as `{name_len u32, name bytes}`
    /// records; returns bytes written, 0 at end.
    fn sys_getdents(&mut self, fd: u32, buf: u32, len: u32, ctx: &mut TrapContext<'_>) -> u32 {
        let (inode, pos) = match self.fd(fd) {
            Some(OpenFile {
                kind: FdKind::Dir(i),
                pos,
                ..
            }) => (*i, *pos as usize),
            Some(_) => return errno(FsError::NotADirectory),
            None => return EBADF,
        };
        let names = match self.fs.list_dir(inode) {
            Ok(n) => n,
            Err(e) => return errno(e),
        };
        let mut out = Vec::new();
        let mut consumed = 0usize;
        for name in names.iter().skip(pos) {
            let rec = 4 + name.len();
            if out.len() + rec > len as usize {
                break;
            }
            out.extend_from_slice(&(name.len() as u32).to_le_bytes());
            out.extend_from_slice(name.as_bytes());
            consumed += 1;
        }
        if !out.is_empty() && ctx.mem.kwrite(buf, &out).is_err() {
            return EFAULT;
        }
        self.fd(fd).expect("checked").pos = (pos + consumed) as u64;
        self.last_io_bytes = out.len() as u64;
        out.len() as u32
    }
}
