//! In-process daemons: each decodes its database image, prepares it and
//! runs `sw_serve::serve` on a unix socket of its own, on a thread the
//! fleet joins when it stops.

use crate::inputs::{to_seqs, LANES};
use crate::spans::{Recorder, SpanId};
use std::io::{self, BufRead, BufReader, Write};
use std::os::unix::net::UnixStream;
use std::path::{Path, PathBuf};
use std::sync::atomic::{AtomicU64, Ordering};
use std::sync::{mpsc, Arc};
use std::thread::JoinHandle;
use std::time::{Duration, Instant};
use sw_core::{HeteroEngine, HeteroSearchConfig, PreparedDb, SearchEngine};
use sw_sched::DrainSignal;
use sw_seq::Alphabet;
use sw_serve::{ServeConfig, ShardRole, ShardSpec};
use sw_swdb::{shard, snapshot};

/// Directory (relative to the checkout) that holds the daemons' sockets.
pub const SOCKET_ROOT: &str = ".perfbench-run";

/// How long a daemon may take to bind its socket.
const START_TIMEOUT: Duration = Duration::from_secs(60);

/// What one daemon loaded, handed back to the benchmark.
pub struct Loaded {
    /// The resident prepared database.
    pub prepared: Arc<PreparedDb>,
    /// Content digest of the decoded image.
    pub digest: u64,
    /// Shard placement, for shard images.
    pub role: Option<ShardRole>,
}

/// Running daemons, one per database image.
pub struct Fleet {
    /// Each daemon's socket.
    pub sockets: Vec<PathBuf>,
    /// Each daemon's resident database.
    pub loaded: Vec<Loaded>,
    signals: Vec<&'static DrainSignal>,
    threads: Vec<JoinHandle<Result<(), String>>>,
}

/// A fresh socket path under [`SOCKET_ROOT`], unique within the process.
fn socket_path() -> PathBuf {
    static NEXT: AtomicU64 = AtomicU64::new(0);
    let n = NEXT.fetch_add(1, Ordering::Relaxed);
    Path::new(SOCKET_ROOT).join(format!("{}-{n}.sock", std::process::id()))
}

/// Remove this process's socket directory contents (best effort).
pub fn clean_sockets() {
    let prefix = format!("{}-", std::process::id());
    if let Ok(dir) = std::fs::read_dir(SOCKET_ROOT) {
        for e in dir.flatten() {
            if e.file_name().to_string_lossy().starts_with(&prefix) {
                let _ = std::fs::remove_file(e.path());
            }
        }
    }
    let _ = std::fs::remove_dir(SOCKET_ROOT);
}

/// Decode one image the way the daemon front end does: SWSHRD1 shards
/// carry their placement, plain snapshots do not.
pub fn load(image: &[u8], sharded: bool, rec: &Recorder, parent: SpanId) -> Result<Loaded, String> {
    let (db, digest, role) = rec.wrap("swdb.snapshot_read", parent, None, |_| {
        let (db, role) = if sharded {
            let (meta, db) = shard::read_shard(image).map_err(|e| e.to_string())?;
            let role = ShardRole {
                index: meta.index,
                count: meta.count,
                base: meta.base,
            };
            (db, Some(role))
        } else {
            (snapshot::read(image).map_err(|e| e.to_string())?, None)
        };
        let digest = snapshot::content_digest(&db);
        Ok::<_, String>((db, digest, role))
    })?;
    let prepared = rec.wrap("swdb.prepare", parent, None, |_| {
        PreparedDb::prepare(to_seqs(&db), LANES, &Alphabet::protein())
    });
    Ok(Loaded {
        prepared: Arc::new(prepared),
        digest,
        role,
    })
}

impl Fleet {
    /// Start one daemon per image (each with 1 cpu + 1 accel worker and
    /// the default `ServeConfig`) and return once every socket is bound.
    /// Images load in parallel, as separate daemon processes would.
    pub fn start(
        images: &Arc<Vec<Vec<u8>>>,
        sharded: bool,
        rec: &Arc<Recorder>,
        parent: SpanId,
    ) -> Result<Fleet, String> {
        std::fs::create_dir_all(SOCKET_ROOT).map_err(|e| format!("{SOCKET_ROOT}: {e}"))?;
        let mut fleet = Fleet {
            sockets: Vec::new(),
            loaded: Vec::new(),
            signals: Vec::new(),
            threads: Vec::new(),
        };
        let (tx, rx) = mpsc::channel();
        for i in 0..images.len() {
            let socket = socket_path();
            // `serve` takes a `'static` signal and a signal never resets,
            // so every daemon gets a fresh one.
            let signal: &'static DrainSignal = Box::leak(Box::new(DrainSignal::new()));
            let (images, rec, tx, path) = (
                Arc::clone(images),
                Arc::clone(rec),
                tx.clone(),
                socket.clone(),
            );
            fleet.threads.push(std::thread::spawn(move || {
                let loaded = match load(&images[i], sharded, &rec, parent) {
                    Ok(l) => l,
                    Err(e) => {
                        let _ = tx.send((i, Err(e.clone())));
                        return Err(e);
                    }
                };
                let prepared = Arc::clone(&loaded.prepared);
                let mut config = ServeConfig::new(path);
                config.snapshot_digest = Some(loaded.digest);
                config.shard = loaded.role;
                let _ = tx.send((i, Ok(loaded)));
                drop(tx);
                let engine = HeteroEngine::new(SearchEngine::paper_default());
                let base = HeteroSearchConfig::best(1, 1);
                sw_serve::serve(
                    &engine,
                    &prepared,
                    &Alphabet::protein(),
                    &base,
                    &config,
                    signal,
                )
                .map(|_| ())
                .map_err(|e| e.to_string())
            }));
            fleet.sockets.push(socket);
            fleet.signals.push(signal);
        }
        drop(tx);
        let mut loaded: Vec<Option<Loaded>> = (0..images.len()).map(|_| None).collect();
        let mut first_err = None;
        for (i, l) in rx.iter() {
            match l {
                Ok(l) => loaded[i] = Some(l),
                Err(e) => first_err = first_err.or(Some(e)),
            }
        }
        if let Some(e) = first_err {
            let _ = fleet.stop();
            return Err(e);
        }
        fleet.loaded = loaded
            .into_iter()
            .map(|l| l.expect("every daemon reported"))
            .collect();
        let bind = rec.begin("serve.bind", parent, None);
        let t0 = Instant::now();
        while !fleet.sockets.iter().all(|s| s.exists()) {
            if t0.elapsed() > START_TIMEOUT || fleet.threads.iter().any(|t| t.is_finished()) {
                let stopped = fleet.stop();
                return Err(format!("a daemon did not bind its socket: {stopped:?}"));
            }
            std::thread::sleep(Duration::from_micros(200));
        }
        rec.end(bind);
        Ok(fleet)
    }

    /// Coordinator specs for a sharded fleet: one digest-checked unix
    /// endpoint per shard.
    pub fn shard_specs(&self) -> Vec<ShardSpec> {
        self.sockets
            .iter()
            .zip(&self.loaded)
            .enumerate()
            .map(|(i, (s, l))| ShardSpec::unix(i as u64, s.clone(), Some(l.digest)))
            .collect()
    }

    /// Signal every daemon to drain and join its thread.
    pub fn stop(&mut self) -> Result<(), String> {
        for s in &self.signals {
            s.request();
        }
        let mut result = Ok(());
        for t in self.threads.drain(..) {
            let r = t
                .join()
                .unwrap_or_else(|_| Err("daemon thread panicked".into()));
            result = result.and(r);
        }
        for s in &self.sockets {
            let _ = std::fs::remove_file(s);
        }
        result
    }
}

impl Drop for Fleet {
    fn drop(&mut self) {
        let _ = self.stop();
    }
}

/// A submit's reply with the arrival time of each phase.
#[derive(Debug, Clone)]
pub struct Submitted {
    /// Every reply line.
    pub lines: Vec<String>,
    /// When the request was written.
    pub sent: Instant,
    /// When the ack line arrived.
    pub ack: Instant,
    /// When the first hit line arrived (the end marker when none did).
    pub first_hit: Instant,
    /// When the stream ended.
    pub end: Instant,
}

impl Submitted {
    /// The hit lines, exactly as streamed.
    pub fn hit_lines(&self) -> &[String] {
        match self.lines.len() {
            n if n >= 3 => &self.lines[2..n - 1],
            _ => &[],
        }
    }
}

/// Send one request line and read the reply stream, stamping when the
/// ack, the first hit and the end arrive.
pub fn submit(socket: &Path, line: &str) -> io::Result<Submitted> {
    let sent = Instant::now();
    let mut stream = UnixStream::connect(socket)?;
    stream.write_all(line.as_bytes())?;
    stream.write_all(b"\n")?;
    stream.flush()?;
    stream.shutdown(std::net::Shutdown::Write)?;
    let mut lines = Vec::new();
    let (mut ack, mut first_hit) = (None, None);
    for l in BufReader::new(stream).lines() {
        let l = l?;
        let now = Instant::now();
        match lines.len() {
            0 => ack = Some(now),
            2 => first_hit = Some(now),
            _ => {}
        }
        lines.push(l);
    }
    let end = Instant::now();
    Ok(Submitted {
        lines,
        sent,
        ack: ack.unwrap_or(end),
        first_hit: first_hit.unwrap_or(end),
        end,
    })
}
