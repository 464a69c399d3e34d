//! Readers for the Linux `/proc` files the benchmark samples. Each
//! returns `None` where the file does not exist (off Linux), so callers
//! report `null` rather than a made-up zero.

use std::path::Path;

/// Peak resident set size of this process (`VmHWM`), in KiB.
pub fn peak_rss_kib() -> Option<u64> {
    parse_status_kib(&std::fs::read_to_string("/proc/self/status").ok()?, "VmHWM")
}

/// A reading of this process's cumulative I/O: bytes passed to read-
/// and write-family syscalls, page cache included.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct IoSnapshot {
    pub rchar: u64,
    pub wchar: u64,
    /// Bytes this reading itself read from `/proc/self/io`; the kernel
    /// adds them to `rchar` only after the snapshot was taken.
    own_read: u64,
}

impl IoSnapshot {
    pub fn take() -> Option<IoSnapshot> {
        let text = std::fs::read_to_string("/proc/self/io").ok()?;
        IoSnapshot::parse(&text)
    }

    fn parse(text: &str) -> Option<IoSnapshot> {
        let (rchar, wchar) = parse_io(text)?;
        Some(IoSnapshot {
            rchar,
            wchar,
            own_read: text.len() as u64,
        })
    }

    /// Bytes read between `self` and `later`, not counting the readings.
    pub fn read_until(&self, later: &IoSnapshot) -> Option<u64> {
        later
            .rchar
            .checked_sub(self.rchar)?
            .checked_sub(self.own_read)
    }

    /// Bytes written between `self` and `later`.
    pub fn written_until(&self, later: &IoSnapshot) -> Option<u64> {
        later.wchar.checked_sub(self.wchar)
    }
}

/// Filesystem type of the mount holding `path` (longest mount-point
/// prefix in `/proc/mounts`).
pub fn fs_type(path: &Path) -> Option<String> {
    let canon = std::fs::canonicalize(path).ok()?;
    let mounts = std::fs::read_to_string("/proc/mounts").ok()?;
    mount_fs_type(&mounts, canon.to_str()?)
}

/// The `kB` value of field `key` in a `/proc/<pid>/status` body.
pub fn parse_status_kib(status: &str, key: &str) -> Option<u64> {
    status.lines().find_map(|line| {
        let rest = line.strip_prefix(key)?.strip_prefix(':')?;
        let mut parts = rest.split_whitespace();
        let v = parts.next()?.parse().ok()?;
        (parts.next() == Some("kB")).then_some(v)
    })
}

/// `(rchar, wchar)` from a `/proc/<pid>/io` body.
pub fn parse_io(io: &str) -> Option<(u64, u64)> {
    let field = |key: &str| {
        io.lines()
            .find_map(|l| l.strip_prefix(key)?.strip_prefix(':')?.trim().parse().ok())
    };
    Some((field("rchar")?, field("wchar")?))
}

/// The filesystem type of the mount whose mount point is the longest
/// path-component prefix of the absolute `path`.
pub fn mount_fs_type(mounts: &str, path: &str) -> Option<String> {
    let mut best: Option<(usize, &str)> = None;
    for line in mounts.lines() {
        let mut f = line.split_whitespace();
        let (Some(_dev), Some(point), Some(kind)) = (f.next(), f.next(), f.next()) else {
            continue;
        };
        // /proc/mounts escapes spaces in mount points as \040.
        let point = point.replace("\\040", " ");
        let covers = point == "/"
            || path == point
            || path
                .strip_prefix(point.as_str())
                .is_some_and(|r| r.starts_with('/'));
        if covers && best.is_none_or(|(len, _)| point.len() >= len) {
            best = Some((point.len(), kind));
        }
    }
    best.map(|(_, kind)| kind.to_string())
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn status_field_in_kib() {
        let status =
            "Name:\tperfbench\nVmPeak:\t  20000 kB\nVmHWM:\t    4321 kB\nVmRSS:\t 4000 kB\n";
        assert_eq!(parse_status_kib(status, "VmHWM"), Some(4321));
        assert_eq!(parse_status_kib(status, "VmRSS"), Some(4000));
        assert_eq!(parse_status_kib(status, "VmSwap"), None);
        assert_eq!(parse_status_kib("VmHWM:\t12 MB\n", "VmHWM"), None);
        // A key that is a prefix of another must not match it.
        assert_eq!(parse_status_kib("VmHWMX:\t1 kB\n", "VmHWM"), None);
    }

    #[test]
    fn io_counters() {
        let io = "rchar: 1024\nwchar: 2048\nsyscr: 5\nsyscw: 6\nread_bytes: 0\n\
                  write_bytes: 4096\ncancelled_write_bytes: 0\n";
        assert_eq!(parse_io(io), Some((1024, 2048)));
        assert_eq!(parse_io("rchar: 1\n"), None);
        assert_eq!(parse_io("rchar: x\nwchar: 2\n"), None);
    }

    #[test]
    fn io_deltas_exclude_the_readings_themselves() {
        let a = IoSnapshot::parse("rchar: 100\nwchar: 50\n").expect("parse");
        let b = IoSnapshot::parse("rchar: 1120\nwchar: 70\n").expect("parse");
        let text_len = "rchar: 100\nwchar: 50\n".len() as u64;
        assert_eq!(a.read_until(&b), Some(1020 - text_len));
        assert_eq!(a.written_until(&b), Some(20));
        assert_eq!(b.written_until(&a), None);
    }

    #[test]
    fn longest_mount_prefix_wins() {
        let mounts = "/dev/vda / ext4 rw,relatime 0 0\n\
                      tmpfs /tmp tmpfs rw 0 0\n\
                      /dev/vdb /data xfs rw 0 0\n\
                      /dev/vdc /data/fast btrfs rw 0 0\n\
                      /dev/vdd /my\\040disk vfat rw 0 0\n";
        assert_eq!(mount_fs_type(mounts, "/home/x").as_deref(), Some("ext4"));
        assert_eq!(mount_fs_type(mounts, "/tmp/a/b").as_deref(), Some("tmpfs"));
        assert_eq!(mount_fs_type(mounts, "/data").as_deref(), Some("xfs"));
        assert_eq!(
            mount_fs_type(mounts, "/data/fast/j").as_deref(),
            Some("btrfs")
        );
        // A sibling sharing a name prefix is not under the mount.
        assert_eq!(
            mount_fs_type(mounts, "/datafast/j").as_deref(),
            Some("ext4")
        );
        assert_eq!(mount_fs_type(mounts, "/my disk/j").as_deref(), Some("vfat"));
        assert_eq!(mount_fs_type("", "/x"), None);
    }
}
