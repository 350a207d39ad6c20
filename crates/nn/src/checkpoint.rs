//! Crash-safe checkpointing with a dependency-free text format.
//!
//! No serialization-format crate is available offline, so checkpoints use a
//! simple line-oriented format that is diff-able and versionable: a typed
//! [`StateBag`] of named sections plus a trailing integrity footer so a torn
//! or truncated write is *always* detected, never loaded as silently wrong
//! values:
//!
//! ```text
//! rotom-checkpoint v2
//! tensor <name> <rows> <cols> <hex8 f32-bits> …
//! f32s <name> <count> <hex8 f32-bits> …
//! u64s <name> <count> <hex16 u64-bits> …
//! end <body-byte-length> <fnv1a64-of-body>
//! ```
//!
//! Any other header (including the retired parameters-only `v1` format) is
//! rejected with a [`CheckpointError::Format`] naming it.
//!
//! The footer line covers every byte before it (header + entries, newlines
//! included) with both a length and an FNV-1a-64 checksum, and the file must
//! end with a newline after the footer — so truncation at *any* byte offset
//! either removes/corrupts the footer, changes the body length, or breaks the
//! checksum. Values round-trip exactly through the hex encoding of their
//! IEEE-754 bits (including NaN payloads, infinities, and subnormals).
//!
//! Writes go through `write_atomic`: serialize to a sibling temp file,
//! `fsync`, then rename over the target, so a crash mid-write leaves the
//! previous checkpoint intact.

use crate::faultpoint::{self, FaultKind};
use crate::optim::Adam;
use crate::params::ParamStore;
use crate::tensor::Tensor;
use rotom_rng::fnv1a64;
use rotom_rng::rngs::StdRng;
use std::fmt::Write as _;
use std::io::{self, Read, Write};
use std::path::Path;

const MAGIC_V2: &str = "rotom-checkpoint v2";

/// Checkpoint errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(io::Error),
    /// The file is not a valid checkpoint (bad header, torn write, failed
    /// checksum, malformed line — the message carries a line number where one
    /// applies).
    Format(String),
    /// The checkpoint does not match the model/run (missing/extra/mis-shaped
    /// parameters, wrong section type, conflicting run configuration).
    Mismatch(String),
    /// The checkpoint contains non-finite values (a healthy run never writes
    /// them, so the run that did had already diverged).
    NonFinite(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint i/o error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
            CheckpointError::NonFinite(m) => write!(f, "non-finite checkpoint value: {m}"),
        }
    }
}

impl From<io::Error> for CheckpointError {
    fn from(e: io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// One typed section of a v2 checkpoint.
#[derive(Debug, Clone)]
pub enum StateEntry {
    /// A flat vector of `f32` values (parameter vectors, optimizer moments).
    F32s(Vec<f32>),
    /// A flat vector of `u64` values (step counters, RNG states).
    U64s(Vec<u64>),
    /// A shaped tensor (named model parameters).
    Tensor(Tensor),
}

/// A named, ordered collection of typed state sections — the in-memory form
/// of a v2 checkpoint. Every subsystem with training state (optimizer, RNG,
/// meta models, best-snapshot) saves into and restores from one bag.
#[derive(Debug, Clone, Default)]
pub struct StateBag {
    entries: Vec<(String, StateEntry)>,
}

impl StateBag {
    /// An empty bag.
    pub fn new() -> Self {
        Self::default()
    }

    /// Whether a section with this name exists.
    pub(crate) fn contains(&self, name: &str) -> bool {
        self.entries.iter().any(|(n, _)| n == name)
    }

    fn put(&mut self, name: impl Into<String>, entry: StateEntry) {
        let name = name.into();
        assert!(
            !name.is_empty() && !name.contains(char::is_whitespace),
            "state section name must be non-empty and whitespace-free: {name:?}"
        );
        assert!(
            !self.contains(&name),
            "duplicate state section name: {name:?}"
        );
        self.entries.push((name, entry));
    }

    /// Add a named `f32` vector section.
    pub fn put_f32s(&mut self, name: impl Into<String>, values: Vec<f32>) {
        self.put(name, StateEntry::F32s(values));
    }

    /// Add a single-`f32` section.
    pub fn put_f32(&mut self, name: impl Into<String>, value: f32) {
        self.put_f32s(name, vec![value]);
    }

    /// Add a named `u64` vector section.
    pub fn put_u64s(&mut self, name: impl Into<String>, values: Vec<u64>) {
        self.put(name, StateEntry::U64s(values));
    }

    /// Add a single-`u64` section.
    pub fn put_u64(&mut self, name: impl Into<String>, value: u64) {
        self.put_u64s(name, vec![value]);
    }

    /// Add a generator's state as a 4-word `u64` section.
    pub fn put_rng(&mut self, name: impl Into<String>, rng: &StdRng) {
        self.put_u64s(name, rng.state().to_vec());
    }

    /// Add a named tensor section.
    pub(crate) fn put_tensor(&mut self, name: impl Into<String>, value: Tensor) {
        self.put(name, StateEntry::Tensor(value));
    }

    fn get(&self, name: &str) -> Result<&StateEntry, CheckpointError> {
        self.entries
            .iter()
            .find(|(n, _)| n == name)
            .map(|(_, e)| e)
            .ok_or_else(|| {
                CheckpointError::Mismatch(format!("section {name:?} missing from checkpoint"))
            })
    }

    /// Fetch an `f32` vector section by name.
    pub fn get_f32s(&self, name: &str) -> Result<&[f32], CheckpointError> {
        match self.get(name)? {
            StateEntry::F32s(v) => Ok(v),
            other => Err(type_mismatch(name, "f32s", other)),
        }
    }

    /// Fetch a single-`f32` section by name.
    pub fn get_f32(&self, name: &str) -> Result<f32, CheckpointError> {
        let v = self.get_f32s(name)?;
        if v.len() != 1 {
            return Err(CheckpointError::Mismatch(format!(
                "section {name:?}: expected 1 value, found {}",
                v.len()
            )));
        }
        Ok(v[0])
    }

    /// Fetch a `u64` vector section by name.
    pub fn get_u64s(&self, name: &str) -> Result<&[u64], CheckpointError> {
        match self.get(name)? {
            StateEntry::U64s(v) => Ok(v),
            other => Err(type_mismatch(name, "u64s", other)),
        }
    }

    /// Fetch a single-`u64` section by name.
    pub fn get_u64(&self, name: &str) -> Result<u64, CheckpointError> {
        let v = self.get_u64s(name)?;
        if v.len() != 1 {
            return Err(CheckpointError::Mismatch(format!(
                "section {name:?}: expected 1 value, found {}",
                v.len()
            )));
        }
        Ok(v[0])
    }

    /// Rebuild a generator from a section written by
    /// [`put_rng`](Self::put_rng); it continues the saved stream exactly.
    pub fn get_rng(&self, name: &str) -> Result<StdRng, CheckpointError> {
        let words = self.get_u64s(name)?;
        let state = <[u64; 4]>::try_from(words).map_err(|_| {
            CheckpointError::Mismatch(format!(
                "{name}: expected 4 state words, found {}",
                words.len()
            ))
        })?;
        Ok(StdRng::from_state(state))
    }

    /// Fetch a tensor section by name.
    pub(crate) fn get_tensor(&self, name: &str) -> Result<&Tensor, CheckpointError> {
        match self.get(name)? {
            StateEntry::Tensor(t) => Ok(t),
            other => Err(type_mismatch(name, "tensor", other)),
        }
    }

    /// Check every `f32` value in the bag for finiteness, naming the first
    /// offending section. Every file load goes through this gate.
    pub(crate) fn check_finite(&self) -> Result<(), CheckpointError> {
        for (name, entry) in &self.entries {
            let data: &[f32] = match entry {
                StateEntry::F32s(v) => v,
                StateEntry::Tensor(t) => t.data(),
                StateEntry::U64s(_) => continue,
            };
            if let Some(i) = data.iter().position(|v| !v.is_finite()) {
                return Err(CheckpointError::NonFinite(format!(
                    "section {name:?} value {i} is {}",
                    data[i]
                )));
            }
        }
        Ok(())
    }

    /// Serialize to the v2 text format (header + entries + integrity footer +
    /// mandatory trailing newline).
    pub fn serialize(&self) -> String {
        let mut body = String::new();
        body.push_str(MAGIC_V2);
        body.push('\n');
        for (name, entry) in &self.entries {
            match entry {
                StateEntry::F32s(v) => {
                    let _ = write!(body, "f32s {name} {}", v.len());
                    for &x in v {
                        let _ = write!(body, " {:08x}", x.to_bits());
                    }
                }
                StateEntry::U64s(v) => {
                    let _ = write!(body, "u64s {name} {}", v.len());
                    for &x in v {
                        let _ = write!(body, " {x:016x}");
                    }
                }
                StateEntry::Tensor(t) => {
                    let _ = write!(body, "tensor {name} {} {}", t.rows(), t.cols());
                    for &x in t.data() {
                        let _ = write!(body, " {:08x}", x.to_bits());
                    }
                }
            }
            body.push('\n');
        }
        let _ = writeln!(body, "end {} {:016x}", body.len(), {
            fnv1a64(&body.as_bytes()[..body.len()])
        });
        body
    }

    /// Parse the v2 text format: the header first, then the integrity
    /// footer, then the sections. A non-v2 header, or any truncated, torn,
    /// or bit-flipped file, fails with a [`CheckpointError::Format`]; so does
    /// a malformed section line (duplicate name, declared size that does not
    /// match its values), with its line number.
    pub fn parse(text: &str) -> Result<StateBag, CheckpointError> {
        let header = text.lines().next().unwrap_or("<empty>");
        if header != MAGIC_V2 {
            return Err(CheckpointError::Format(format!("bad header: {header:?}")));
        }
        // Footer discipline: the file must end with "end <len> <fnv1a64>\n".
        // Requiring the final newline means even a single byte truncated off
        // the end is detected.
        let stripped = text.strip_suffix('\n').ok_or_else(|| {
            CheckpointError::Format(
                "missing trailing newline after footer (truncated file?)".to_string(),
            )
        })?;
        let (body, footer) = match stripped.rfind('\n') {
            Some(i) => (&text[..i + 1], &stripped[i + 1..]),
            None => {
                return Err(CheckpointError::Format(
                    "missing integrity footer (truncated file?)".to_string(),
                ))
            }
        };
        let mut it = footer.split_ascii_whitespace();
        if it.next() != Some("end") {
            return Err(CheckpointError::Format(format!(
                "last line is not an integrity footer: {footer:?} (truncated file?)"
            )));
        }
        let want_len: usize = it
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Format("footer: bad body length".to_string()))?;
        let want_sum = it
            .next()
            .and_then(|s| u64::from_str_radix(s, 16).ok())
            .ok_or_else(|| CheckpointError::Format("footer: bad checksum".to_string()))?;
        if it.next().is_some() {
            return Err(CheckpointError::Format(
                "footer: trailing tokens".to_string(),
            ));
        }
        if body.len() != want_len {
            return Err(CheckpointError::Format(format!(
                "body length {} != footer length {want_len} (truncated or torn file)",
                body.len()
            )));
        }
        let got_sum = fnv1a64(body.as_bytes());
        if got_sum != want_sum {
            return Err(CheckpointError::Format(format!(
                "checksum {got_sum:016x} != footer checksum {want_sum:016x} (corrupt file)"
            )));
        }

        let mut bag = StateBag::new();
        for (idx, line) in body.lines().enumerate().skip(1) {
            let lineno = idx + 1; // 1-based for humans
            if line.trim().is_empty() {
                continue;
            }
            let mut it = line.split_ascii_whitespace();
            let kind = it.next().unwrap();
            let name = it
                .next()
                .ok_or_else(|| {
                    CheckpointError::Format(format!("line {lineno}: missing section name"))
                })?
                .to_string();
            if bag.contains(&name) {
                return Err(CheckpointError::Format(format!(
                    "line {lineno}: duplicate section name {name:?}"
                )));
            }
            let mut size = |what: &str| -> Result<usize, CheckpointError> {
                it.next().and_then(|s| s.parse().ok()).ok_or_else(|| {
                    CheckpointError::Format(format!("line {lineno}: bad {what} for {name:?}"))
                })
            };
            let entry = match kind {
                "f32s" => {
                    let count = size("count")?;
                    StateEntry::F32s(parse_values(it, count, lineno, &name, f32_from_hex)?)
                }
                "u64s" => {
                    let count = size("count")?;
                    StateEntry::U64s(parse_values(it, count, lineno, &name, |t| {
                        u64::from_str_radix(t, 16).ok()
                    })?)
                }
                "tensor" => {
                    let rows = size("rows")?;
                    let cols = size("cols")?;
                    let count = rows.checked_mul(cols).ok_or_else(|| {
                        CheckpointError::Format(format!(
                            "line {lineno}: shape {rows}x{cols} overflows in {name:?}"
                        ))
                    })?;
                    let data = parse_values(it, count, lineno, &name, f32_from_hex)?;
                    StateEntry::Tensor(Tensor::from_vec(data, rows, cols))
                }
                other => {
                    return Err(CheckpointError::Format(format!(
                        "line {lineno}: unknown section kind {other:?}"
                    )))
                }
            };
            bag.entries.push((name, entry));
        }
        Ok(bag)
    }

    /// Atomically write this bag to `path` (see `write_atomic`).
    pub fn save_atomic(&self, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
        write_atomic(path.as_ref(), self.serialize().as_bytes())
    }

    /// Read and parse a v2 checkpoint file, rejecting non-finite values.
    pub fn load_path(path: impl AsRef<Path>) -> Result<StateBag, CheckpointError> {
        let mut text = String::new();
        std::fs::File::open(path)?.read_to_string(&mut text)?;
        let bag = StateBag::parse(&text)?;
        bag.check_finite()?;
        Ok(bag)
    }
}

fn f32_from_hex(tok: &str) -> Option<f32> {
    u32::from_str_radix(tok, 16).ok().map(f32::from_bits)
}

/// Parse the value tokens left on a section line; there must be exactly
/// `count`. `count` comes from the file, so the preallocation is capped at
/// the number of tokens actually on the line.
fn parse_values<T>(
    it: std::str::SplitAsciiWhitespace<'_>,
    count: usize,
    lineno: usize,
    name: &str,
    parse: impl Fn(&str) -> Option<T>,
) -> Result<Vec<T>, CheckpointError> {
    let mut vals = Vec::with_capacity(count.min(it.clone().count()));
    for tok in it {
        let v = parse(tok)
            .ok_or_else(|| CheckpointError::Format(format!("line {lineno}: bad value {tok:?}")))?;
        vals.push(v);
    }
    if vals.len() != count {
        return Err(CheckpointError::Format(format!(
            "line {lineno}: {} values for declared size {count} in {name:?}",
            vals.len()
        )));
    }
    Ok(vals)
}

fn type_mismatch(name: &str, want: &str, got: &StateEntry) -> CheckpointError {
    let got = match got {
        StateEntry::F32s(_) => "f32s",
        StateEntry::U64s(_) => "u64s",
        StateEntry::Tensor(_) => "tensor",
    };
    CheckpointError::Mismatch(format!(
        "section {name:?}: expected kind {want}, found {got}"
    ))
}

/// Atomically replace `path` with `bytes`: write to a sibling `.tmp` file,
/// `fsync` it, rename over the target, then best-effort `fsync` the parent
/// directory. A crash at any point leaves either the old file or the new one
/// — never a torn mix.
///
/// Honors the [`FaultKind::TornCheckpoint`] faultpoint: when armed, writes a
/// deliberately truncated file *directly* to `path` (simulating a torn
/// in-place write from a crash or a non-atomic legacy writer) so tests can
/// prove the parser detects it.
pub(crate) fn write_atomic(path: &Path, bytes: &[u8]) -> Result<(), CheckpointError> {
    if faultpoint::fires(FaultKind::TornCheckpoint, 0) {
        let torn = &bytes[..bytes.len() * 2 / 3];
        let mut f = std::fs::File::create(path)?;
        f.write_all(torn)?;
        return Ok(());
    }
    let file_name = path
        .file_name()
        .ok_or_else(|| CheckpointError::Format(format!("bad checkpoint path: {path:?}")))?;
    let mut tmp_name = file_name.to_os_string();
    tmp_name.push(".tmp");
    let tmp = path.with_file_name(tmp_name);
    {
        let mut f = std::fs::File::create(&tmp)?;
        f.write_all(bytes)?;
        f.sync_all()?;
    }
    std::fs::rename(&tmp, path)?;
    if let Some(dir) = path.parent() {
        if !dir.as_os_str().is_empty() {
            if let Ok(d) = std::fs::File::open(dir) {
                let _ = d.sync_all();
            }
        }
    }
    Ok(())
}

/// Pack all parameters of a store into a [`StateBag`] as tensor sections.
pub(crate) fn store_to_bag(store: &ParamStore) -> StateBag {
    let mut bag = StateBag::new();
    for id in store.ids() {
        bag.put_tensor(store.name(id).to_string(), store.value(id).clone());
    }
    bag
}

/// Restore store parameters from a bag's tensor sections (by name, shapes
/// checked). Extra sections in the bag are ignored, so a full-state bag can
/// feed a params-only restore. Every tensor is checked before any is
/// written, so a rejected bag leaves the store unchanged.
pub(crate) fn bag_into_store(
    bag: &StateBag,
    store: &mut ParamStore,
) -> Result<(), CheckpointError> {
    let mut loaded = Vec::with_capacity(store.num_params());
    for id in store.ids() {
        let name = store.name(id);
        let t = bag.get_tensor(name)?;
        let current = store.value(id);
        if (current.rows(), current.cols()) != (t.rows(), t.cols()) {
            return Err(CheckpointError::Mismatch(format!(
                "parameter {name:?}: shape {}x{} vs checkpoint {}x{}",
                current.rows(),
                current.cols(),
                t.rows(),
                t.cols()
            )));
        }
        loaded.push((id, t));
    }
    for (id, t) in loaded {
        *store.value_mut(id) = t.clone();
    }
    Ok(())
}

/// Save a trained model's parameter + optimizer pair under `prefix`: the
/// flat parameters (see [`ParamStore::flat_values`]) as `{prefix}.params`
/// and the Adam state as `{prefix}.adam.{t,m,v}`. Every model Algorithm 2
/// trains (the target, `M_F`, `M_W`) checkpoints through this one pair.
pub fn save_params_adam(bag: &mut StateBag, prefix: &str, store: &ParamStore, opt: &Adam) {
    bag.put_f32s(format!("{prefix}.params"), store.flat_values());
    opt.save_state(bag, &format!("{prefix}.adam"));
}

/// Restore a pair written by [`save_params_adam`] into an identically
/// constructed store and optimizer. A parameter section of the wrong length
/// is rejected before anything is written.
pub fn load_params_adam(
    bag: &StateBag,
    prefix: &str,
    store: &mut ParamStore,
    opt: &mut Adam,
) -> Result<(), CheckpointError> {
    flat_into_store(bag, prefix, store)?;
    opt.load_state(bag, &format!("{prefix}.adam"), store)
}

/// Restore a store's flat parameter vector from the bag's `{prefix}.params`
/// section. A section of the wrong length is rejected before anything is
/// written.
fn flat_into_store(
    bag: &StateBag,
    prefix: &str,
    store: &mut ParamStore,
) -> Result<(), CheckpointError> {
    let params = bag.get_f32s(&format!("{prefix}.params"))?;
    if params.len() != store.num_scalars() {
        return Err(CheckpointError::Mismatch(format!(
            "{prefix:?}: {} parameters vs checkpoint {}",
            store.num_scalars(),
            params.len()
        )));
    }
    store.set_flat(params);
    Ok(())
}

/// Write a store checkpoint to a file, atomically, in the v2 format.
pub fn save(store: &ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    store_to_bag(store).save_atomic(path)
}

/// Read a v2 file checkpoint into a store (matching parameters by name),
/// rejecting non-finite values.
pub fn load(store: &mut ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    bag_into_store(&StateBag::load_path(path)?, store)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::init::Initializer;
    use rotom_rng::rngs::StdRng;
    use rotom_rng::SeedableRng;

    fn store() -> ParamStore {
        let mut rng = StdRng::seed_from_u64(3);
        let mut s = ParamStore::new();
        s.alloc("layer.w", 2, 3, Initializer::XavierUniform, &mut rng);
        s.alloc("layer.b", 1, 3, Initializer::Uniform(0.5), &mut rng);
        s
    }

    fn tmp_path(name: &str) -> std::path::PathBuf {
        let dir = std::env::temp_dir().join("rotom_ckpt_test");
        std::fs::create_dir_all(&dir).unwrap();
        dir.join(name)
    }

    /// Wrap a v2 body (header + section lines) in a valid integrity footer.
    fn with_footer(body: &str) -> String {
        format!(
            "{body}end {} {:016x}\n",
            body.len(),
            fnv1a64(body.as_bytes())
        )
    }

    #[test]
    fn rejects_bad_header() {
        assert!(matches!(
            StateBag::parse("nonsense"),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn rejects_shape_mismatch() {
        let mut src = ParamStore::new();
        src.push("layer.w", Tensor::zeros(2, 3));
        src.push("layer.b", Tensor::zeros(3, 1));
        let path = tmp_path("shape_mismatch.ckpt");
        save(&src, &path).unwrap();
        let mut dst = store();
        assert!(matches!(
            load(&mut dst, &path),
            Err(CheckpointError::Mismatch(m)) if m.contains("layer.b")
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_missing_parameter() {
        let mut src = ParamStore::new();
        src.push("layer.w", Tensor::zeros(2, 3));
        let path = tmp_path("missing_param.ckpt");
        save(&src, &path).unwrap();
        let mut dst = store();
        assert!(matches!(
            load(&mut dst, &path),
            Err(CheckpointError::Mismatch(m)) if m.contains("layer.b")
        ));
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejected_bag_leaves_store_unchanged() {
        // The first tensor fits; the last is missing, or has the wrong shape.
        let bag = |last: Option<Tensor>| {
            let mut bag = StateBag::new();
            bag.put_tensor("layer.w", Tensor::full(2, 3, 7.0));
            if let Some(t) = last {
                bag.put_tensor("layer.b", t);
            }
            bag
        };
        for bag in [bag(None), bag(Some(Tensor::zeros(3, 1)))] {
            let mut dst = store();
            let (before, generations) = (dst.flat_values(), dst.generation_sum());
            assert!(matches!(
                bag_into_store(&bag, &mut dst),
                Err(CheckpointError::Mismatch(m)) if m.contains("layer.b")
            ));
            assert_eq!(dst.flat_values(), before);
            assert_eq!(dst.generation_sum(), generations);
        }
        // A flat section of the wrong length is rejected the same way.
        let mut bag = StateBag::new();
        bag.put_f32s("m.params", vec![1.0; 8]);
        let mut dst = store();
        let (before, generations) = (dst.flat_values(), dst.generation_sum());
        assert!(matches!(
            flat_into_store(&bag, "m", &mut dst),
            Err(CheckpointError::Mismatch(m)) if m.contains("9 parameters vs checkpoint 8")
        ));
        assert_eq!(dst.flat_values(), before);
        assert_eq!(dst.generation_sum(), generations);
        bag.put_f32s("ok.params", vec![1.0; 9]);
        flat_into_store(&bag, "ok", &mut dst).unwrap();
        assert_eq!(dst.flat_values(), vec![1.0; 9]);
    }

    #[test]
    fn file_roundtrip() {
        let src = store();
        let path = tmp_path("model.ckpt");
        save(&src, &path).unwrap();
        let mut dst = store();
        dst.value_mut(dst.ids().next().unwrap())
            .data_mut()
            .fill(0.0);
        load(&mut dst, &path).unwrap();
        assert_eq!(src.flat_values(), dst.flat_values());
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn v1_file_is_rejected_naming_the_header() {
        let path = tmp_path("legacy_v1.ckpt");
        std::fs::write(&path, "rotom-checkpoint v1\nlayer.b 1 3 0 0 0\n").unwrap();
        let mut dst = store();
        match load(&mut dst, &path) {
            Err(CheckpointError::Format(m)) => {
                assert!(
                    m.contains("bad header") && m.contains("rotom-checkpoint v1"),
                    "{m}"
                )
            }
            other => panic!("expected a header error, got {other:?}"),
        }
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn special_float_values_roundtrip() {
        let weird = vec![
            f32::from_bits(0x7fc0_0001), // quiet NaN with a payload
            f32::from_bits(0xffa0_0000), // negative signalling NaN
            f32::INFINITY,
            f32::NEG_INFINITY,
            0.0,
            -0.0,
            f32::MIN_POSITIVE,
            1e-40, // subnormal
            1234.5678,
        ];
        let mut bag = StateBag::new();
        bag.put_f32s("v", weird.clone());
        bag.put_tensor("t", Tensor::from_vec(weird.clone(), 3, 3));
        let back = StateBag::parse(&bag.serialize()).unwrap();
        let bits = |v: &[f32]| v.iter().map(|x| x.to_bits()).collect::<Vec<_>>();
        assert_eq!(bits(back.get_f32s("v").unwrap()), bits(&weird));
        assert_eq!(bits(back.get_tensor("t").unwrap().data()), bits(&weird));
    }

    #[test]
    fn bag_roundtrip_all_kinds() {
        let mut bag = StateBag::new();
        bag.put_f32s("opt.m", vec![1.5, -2.25, 0.0]);
        bag.put_u64s("rng.state", vec![u64::MAX, 0, 12345]);
        bag.put_tensor("w", Tensor::from_vec(vec![1.0, 2.0, 3.0, 4.0], 2, 2));
        bag.put_f32("baseline", 0.75);
        bag.put_u64("step", 42);
        let back = StateBag::parse(&bag.serialize()).unwrap();
        assert_eq!(back.get_f32s("opt.m").unwrap(), &[1.5, -2.25, 0.0]);
        assert_eq!(back.get_u64s("rng.state").unwrap(), &[u64::MAX, 0, 12345]);
        assert_eq!(back.get_tensor("w").unwrap().data(), &[1.0, 2.0, 3.0, 4.0]);
        assert_eq!(back.get_f32("baseline").unwrap(), 0.75);
        assert_eq!(back.get_u64("step").unwrap(), 42);
        // Sections come back in insertion order.
        assert_eq!(back.serialize(), bag.serialize());
    }

    #[test]
    fn bag_type_mismatch_is_error() {
        let mut bag = StateBag::new();
        bag.put_f32s("x", vec![1.0]);
        assert!(matches!(
            bag.get_u64s("x"),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            bag.get_tensor("x"),
            Err(CheckpointError::Mismatch(_))
        ));
        assert!(matches!(
            bag.get_f32s("absent"),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn rng_section_resumes_the_stream_and_checks_its_length() {
        use rotom_rng::RngCore;
        let mut rng = StdRng::seed_from_u64(11);
        rng.next_u64();
        let mut bag = StateBag::new();
        bag.put_rng("loop.rng", &rng);
        bag.put_u64s("short.rng", vec![1, 2, 3]);
        let bag = StateBag::parse(&bag.serialize()).unwrap();
        let mut resumed = bag.get_rng("loop.rng").unwrap();
        assert_eq!(resumed.next_u64(), rng.next_u64());
        match bag.get_rng("short.rng") {
            Err(CheckpointError::Mismatch(m)) => {
                assert_eq!(m, "short.rng: expected 4 state words, found 3")
            }
            other => panic!("expected a mismatch, got {other:?}"),
        }
    }

    /// Section lines that pass the integrity footer but are malformed fail
    /// with a `Format` error naming the line and the section, and never
    /// panic or allocate for a declared size the line does not carry.
    #[test]
    fn bag_rejects_malformed_sections() {
        let cases = [
            // Duplicate section name.
            ("f32s a 1 3f800000\nf32s a 1 3f800000\n", "line 3", "\"a\""),
            // Declared sizes far beyond the values on the line: capacity
            // overflow, rows x cols overflow, and a count that fits `isize`
            // but not in memory.
            ("f32s x 4611686018427387904 00000000\n", "line 2", "\"x\""),
            ("u64s u 2305843009213693951 00\n", "line 2", "\"u\""),
            (
                "tensor t 4294967296 4294967297 00000000\n",
                "line 2",
                "\"t\"",
            ),
            ("f32s big 68719476736 00000000\n", "line 2", "\"big\""),
        ];
        for (sections, line, section) in cases {
            let text = with_footer(&format!("{MAGIC_V2}\n{sections}"));
            match StateBag::parse(&text) {
                Err(CheckpointError::Format(m)) => {
                    assert!(m.contains(line) && m.contains(section), "{sections:?}: {m}")
                }
                other => panic!("{sections:?}: expected a format error, got {other:?}"),
            }
        }
    }

    /// Parse `body` behind a valid footer, so the section parser (not the
    /// checksum) sees it. It must return `Ok` or a typed error, and a bag it
    /// accepts must survive its own serialize/parse round trip.
    fn parse_refootered(body: &str) {
        if let Ok(bag) = StateBag::parse(&with_footer(body)) {
            let _ = bag.check_finite();
            let text = bag.serialize();
            let back = StateBag::parse(&text).expect("an accepted bag re-parses");
            assert_eq!(back.serialize(), text, "{body:?}");
        }
    }

    /// Every single-byte edit of a serialized bag's body (each byte replaced
    /// by each of a set of bytes, deleted, or preceded by an inserted byte),
    /// plus seeded random bodies, re-footered so each reaches the section
    /// parser: none may panic.
    #[test]
    fn section_parser_is_total_under_a_valid_footer() {
        use rotom_rng::RngExt;
        let mut bag = StateBag::new();
        bag.put_f32s("opt.m", vec![0.5, -1.0]);
        bag.put_u64s("rng", vec![7, u64::MAX]);
        bag.put_tensor("w", Tensor::from_vec(vec![1.0; 4], 2, 2));
        let text = bag.serialize();
        let body = &text[..text.rfind("end ").unwrap()];
        const BYTES: &[u8] = b"0179afgx \n\t\x0b\r-+.e";
        let mut edited = 0;
        for pos in 0..body.len() {
            let mut variants =
                vec![[&body.as_bytes()[..pos], &body.as_bytes()[pos + 1..]].concat()];
            for &b in BYTES {
                let mut replaced = body.as_bytes().to_vec();
                replaced[pos] = b;
                variants.push(replaced);
                let mut inserted = body.as_bytes().to_vec();
                inserted.insert(pos, b);
                variants.push(inserted);
            }
            for v in variants {
                if let Ok(s) = String::from_utf8(v) {
                    parse_refootered(&s);
                    edited += 1;
                }
            }
        }
        assert!(edited > 30 * body.len(), "{edited} edits");

        let words = [
            "f32s",
            "u64s",
            "tensor",
            "end",
            "x",
            "x",
            "y",
            "0",
            "1",
            "2",
            "3",
            "00000000",
            "3f800000",
            "7fc00000",
            "ffffffff",
            "ffffffffffffffff",
            "18446744073709551616",
            "4294967296",
            "-1",
            "+1",
            "1e3",
            "zz",
            "",
        ];
        let mut rng = StdRng::seed_from_u64(0xC4EC);
        for _ in 0..20_000 {
            let mut body = String::new();
            if rng.random_range(0..8) != 0 {
                body.push_str(MAGIC_V2);
                body.push('\n');
            }
            for _ in 0..rng.random_range(0..5) {
                for _ in 0..rng.random_range(0..7) {
                    body.push_str(words[rng.random_range(0..words.len())]);
                    body.push(if rng.random_range(0..6) == 0 {
                        '\t'
                    } else {
                        ' '
                    });
                }
                body.push('\n');
            }
            parse_refootered(&body);
        }
    }

    #[test]
    fn truncation_at_every_offset_is_detected() {
        let mut bag = StateBag::new();
        bag.put_f32s("opt.m", vec![0.5; 7]);
        bag.put_u64s("rng", vec![7, 8, 9]);
        bag.put_tensor("w", Tensor::from_vec(vec![1.0; 6], 2, 3));
        let text = bag.serialize();
        for cut in 0..text.len() {
            assert!(
                StateBag::parse(&text[..cut]).is_err(),
                "truncation to {cut} bytes of {} parsed successfully",
                text.len()
            );
        }
        assert!(StateBag::parse(&text).is_ok());
    }

    #[test]
    fn bitflip_in_body_is_detected() {
        let mut bag = StateBag::new();
        bag.put_f32s("v", vec![1.0, 2.0, 3.0]);
        let text = bag.serialize();
        let mut corrupted = text.clone().into_bytes();
        // Flip one hex digit inside the body (a value byte, not the footer).
        let pos = text.find("3f800000").unwrap();
        corrupted[pos] = b'4';
        let corrupted = String::from_utf8(corrupted).unwrap();
        assert!(matches!(
            StateBag::parse(&corrupted),
            Err(CheckpointError::Format(_))
        ));
    }

    #[test]
    fn nonfinite_values_are_rejected_on_load() {
        let mut bag = StateBag::new();
        bag.put_f32s("diverged", vec![1.0, f32::NAN]);
        let path = tmp_path("nonfinite.ckpt");
        bag.save_atomic(&path).unwrap();
        assert!(matches!(
            StateBag::load_path(&path),
            Err(CheckpointError::NonFinite(m)) if m.contains("diverged")
        ));
        let _ = std::fs::remove_file(&path);

        let mut s = ParamStore::new();
        s.push("w", Tensor::from_vec(vec![1.0, f32::INFINITY], 1, 2));
        let path = tmp_path("nonfinite_param.ckpt");
        save(&s, &path).unwrap();
        let mut dst = ParamStore::new();
        dst.push("w", Tensor::from_vec(vec![0.0, 0.0], 1, 2));
        assert!(matches!(
            load(&mut dst, &path),
            Err(CheckpointError::NonFinite(_))
        ));
        assert_eq!(
            dst.flat_values(),
            vec![0.0, 0.0],
            "a rejected load leaves the store"
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn atomic_save_leaves_no_tmp_file() {
        let src = store();
        let path = tmp_path("atomic.ckpt");
        save(&src, &path).unwrap();
        assert!(path.exists());
        assert!(!path.with_file_name("atomic.ckpt.tmp").exists());
        let _ = std::fs::remove_file(path);
    }
}
