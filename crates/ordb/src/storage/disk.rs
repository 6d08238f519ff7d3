//! Page files: fixed-size page I/O over real files.
//!
//! Every write funnels through an optional [`FaultInjector`], which the
//! crash-matrix tests use to simulate a process kill, a torn page, or a
//! flipped bit at a deterministic write number. Production opens carry
//! no injector and pay only a null check.

use std::fs::{File, OpenOptions};
use std::os::unix::fs::FileExt;
use std::path::{Path, PathBuf};
use std::sync::Arc;

use crate::error::Result;
use crate::storage::fault::{crash_error, FaultInjector, IoKind, WriteAction};
use crate::storage::page::PAGE_SIZE;

/// A file of [`PAGE_SIZE`]-byte pages.
pub struct PageFile {
    file: File,
    path: PathBuf,
    page_count: u32,
    fault: Option<Arc<FaultInjector>>,
}

/// Perform one fault-mediated write of `buf` at `off` on `file`.
pub(crate) fn faulted_write_at(
    file: &File,
    fault: Option<&FaultInjector>,
    kind: IoKind,
    buf: &[u8],
    off: u64,
) -> std::io::Result<()> {
    let action = match fault {
        Some(inj) => inj.on_write(kind, buf.len()),
        None => WriteAction::Proceed,
    };
    match action {
        WriteAction::Proceed => file.write_all_at(buf, off),
        WriteAction::Dead => Err(crash_error()),
        WriteAction::Tear(keep) => {
            file.write_all_at(&buf[..keep], off)?;
            Err(crash_error())
        }
        WriteAction::Corrupt { byte, mask } => {
            let mut copy = buf.to_vec();
            let at = byte % copy.len().max(1);
            copy[at] ^= mask;
            file.write_all_at(&copy, off)
        }
    }
}

/// Perform one fault-mediated `sync_data` on `file`.
pub(crate) fn faulted_sync(file: &File, fault: Option<&FaultInjector>) -> std::io::Result<()> {
    if let Some(inj) = fault {
        if !inj.allow_sync() {
            return Err(crash_error());
        }
    }
    file.sync_data()
}

impl PageFile {
    /// Open (creating if absent) the page file at `path`.
    pub fn open(path: impl AsRef<Path>) -> Result<PageFile> {
        PageFile::open_faulted(path, None)
    }

    /// Open with an optional fault injector mediating every write.
    pub fn open_faulted(
        path: impl AsRef<Path>,
        fault: Option<Arc<FaultInjector>>,
    ) -> Result<PageFile> {
        let path = path.as_ref().to_path_buf();
        let file =
            OpenOptions::new().read(true).write(true).create(true).truncate(false).open(&path)?;
        let len = file.metadata()?.len();
        let page_count = (len / PAGE_SIZE as u64) as u32;
        Ok(PageFile { file, path, page_count, fault })
    }

    /// Number of allocated pages.
    pub fn page_count(&self) -> u32 {
        self.page_count
    }

    /// The file's path on disk.
    pub fn path(&self) -> &Path {
        &self.path
    }

    /// Current file size in bytes.
    pub fn size_bytes(&self) -> u64 {
        self.page_count as u64 * PAGE_SIZE as u64
    }

    /// Read page `pid` into `buf`.
    pub fn read_page(&self, pid: u32, buf: &mut [u8; PAGE_SIZE]) -> Result<()> {
        self.file.read_exact_at(buf, pid as u64 * PAGE_SIZE as u64)?;
        Ok(())
    }

    /// Write page `pid` from `buf`.
    pub fn write_page(&self, pid: u32, buf: &[u8; PAGE_SIZE]) -> Result<()> {
        faulted_write_at(
            &self.file,
            self.fault.as_deref(),
            IoKind::Data,
            buf,
            pid as u64 * PAGE_SIZE as u64,
        )?;
        Ok(())
    }

    /// Extend the file by one zeroed page, returning its id. The file
    /// grows by its length alone: no page image is written, so every
    /// data write a crash can tear or corrupt is one whose image the log
    /// already holds.
    pub fn allocate(&mut self) -> Result<u32> {
        if self.fault.as_ref().is_some_and(|inj| inj.crashed()) {
            return Err(crash_error().into());
        }
        let pid = self.page_count;
        self.file.set_len((u64::from(pid) + 1) * PAGE_SIZE as u64)?;
        self.page_count += 1;
        Ok(pid)
    }

    /// Flush file contents to stable storage.
    pub fn sync(&self) -> Result<()> {
        faulted_sync(&self.file, self.fault.as_deref())?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::storage::fault::{CrashMode, FaultPlan, FaultScope};

    #[test]
    fn allocate_read_write() {
        let dir = std::env::temp_dir().join(format!("ordb-disk-test-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.db");
        let _ = std::fs::remove_file(&path);
        {
            let mut f = PageFile::open(&path).unwrap();
            assert_eq!(f.page_count(), 0);
            let p0 = f.allocate().unwrap();
            let p1 = f.allocate().unwrap();
            assert_eq!((p0, p1), (0, 1));
            let mut buf = [0u8; PAGE_SIZE];
            buf[0] = 0xAB;
            buf[PAGE_SIZE - 1] = 0xCD;
            f.write_page(p1, &buf).unwrap();
            f.sync().unwrap();
        }
        {
            let f = PageFile::open(&path).unwrap();
            assert_eq!(f.page_count(), 2);
            assert_eq!(f.size_bytes(), 2 * PAGE_SIZE as u64);
            let mut buf = [0u8; PAGE_SIZE];
            f.read_page(1, &mut buf).unwrap();
            assert_eq!((buf[0], buf[PAGE_SIZE - 1]), (0xAB, 0xCD));
            f.read_page(0, &mut buf).unwrap();
            assert_eq!(buf[0], 0);
        }
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn injected_crash_fails_writes_and_sync() {
        let dir = std::env::temp_dir().join(format!("ordb-disk-fault-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.db");
        let _ = std::fs::remove_file(&path);
        let inj = FaultInjector::new();
        let mut f = PageFile::open_faulted(&path, Some(inj.clone())).unwrap();
        let pid = f.allocate().unwrap();
        inj.arm(FaultPlan {
            crash_after: 0,
            mode: CrashMode::Drop,
            scope: FaultScope::Data,
            seed: 1,
        });
        let buf = [7u8; PAGE_SIZE];
        assert!(f.write_page(pid, &buf).is_err(), "crashing write must fail");
        assert!(f.sync().is_err(), "post-crash sync must fail");
        // The dropped write left the page untouched (still zeros).
        let mut back = [1u8; PAGE_SIZE];
        f.read_page(pid, &mut back).unwrap();
        assert!(back.iter().all(|&b| b == 0));
        inj.disarm();
        assert!(f.write_page(pid, &buf).is_ok());
        std::fs::remove_file(&path).unwrap();
    }

    #[test]
    fn torn_write_leaves_partial_page() {
        let dir = std::env::temp_dir().join(format!("ordb-disk-tear-{}", std::process::id()));
        std::fs::create_dir_all(&dir).unwrap();
        let path = dir.join("t.db");
        let _ = std::fs::remove_file(&path);
        let inj = FaultInjector::new();
        let mut f = PageFile::open_faulted(&path, Some(inj.clone())).unwrap();
        let pid = f.allocate().unwrap();
        inj.arm(FaultPlan {
            crash_after: 0,
            mode: CrashMode::Tear,
            scope: FaultScope::Data,
            seed: 42,
        });
        let buf = [0xEEu8; PAGE_SIZE];
        assert!(f.write_page(pid, &buf).is_err());
        inj.disarm();
        let mut back = [0u8; PAGE_SIZE];
        f.read_page(pid, &mut back).unwrap();
        let written = back.iter().filter(|&&b| b == 0xEE).count();
        assert!(written < PAGE_SIZE, "tear must not land the full page");
        // Torn prefix is contiguous from the start.
        assert!(back[..written].iter().all(|&b| b == 0xEE));
        assert!(back[written..].iter().all(|&b| b == 0));
        std::fs::remove_file(&path).unwrap();
    }
}
