//! Parameter checkpointing.
//!
//! The paper trains a Teal model for ~a week per topology and retrains for
//! 6–10 hours after permanent topology changes (§4). That only works if
//! trained weights persist, so [`ParamStore`] supports saving to and loading
//! from a simple self-describing text format (one tensor per block: name,
//! shape, then row-major values). Text keeps the format debuggable and
//! dependency-free; precision is preserved via the exact `f32` bit patterns
//! encoded in lowercase hex alongside a human-readable decimal.

use crate::module::ParamStore;
use crate::tensor::Tensor;
use std::fmt::Write as _;
use std::path::Path;

/// Magic header identifying the format (versioned for forward compat).
const MAGIC: &str = "teal-checkpoint-v1";

/// Serialization/deserialization errors.
#[derive(Debug)]
pub enum CheckpointError {
    /// Underlying I/O failure.
    Io(std::io::Error),
    /// The file is not a valid checkpoint (with a human-readable reason).
    Format(String),
    /// The checkpoint's parameters do not match the target store's
    /// names/shapes.
    Mismatch(String),
}

impl std::fmt::Display for CheckpointError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        match self {
            CheckpointError::Io(e) => write!(f, "checkpoint I/O error: {e}"),
            CheckpointError::Format(m) => write!(f, "invalid checkpoint: {m}"),
            CheckpointError::Mismatch(m) => write!(f, "checkpoint mismatch: {m}"),
        }
    }
}

impl std::error::Error for CheckpointError {}

impl From<std::io::Error> for CheckpointError {
    fn from(e: std::io::Error) -> Self {
        CheckpointError::Io(e)
    }
}

/// Serialize every parameter of a store into the checkpoint text format.
pub fn to_string(store: &ParamStore) -> String {
    let mut out = String::new();
    let _ = writeln!(out, "{MAGIC}");
    let _ = writeln!(out, "tensors {}", store.len());
    for i in 0..store.len() {
        let id = store.id_at(i);
        let t = store.get(id);
        let (r, c) = t.shape();
        let _ = writeln!(out, "tensor {} {} {}", store.name(id), r, c);
        for row in 0..r {
            let mut line = String::new();
            for (j, v) in t.row(row).iter().enumerate() {
                if j > 0 {
                    line.push(' ');
                }
                // Exact bits in hex; decimal only for human readers.
                let _ = write!(line, "{:08x}", v.to_bits());
            }
            out.push_str(&line);
            out.push('\n');
        }
    }
    out
}

/// Parse a checkpoint and load it into `store`. Parameter names, order, and
/// shapes must match exactly (the checkpoint belongs to the same
/// architecture).
pub fn load_str(store: &mut ParamStore, data: &str) -> Result<(), CheckpointError> {
    let mut lines = data.lines();
    let header = lines
        .next()
        .ok_or_else(|| CheckpointError::Format("empty file".into()))?;
    if header.trim() != MAGIC {
        return Err(CheckpointError::Format(format!("bad magic {header:?}")));
    }
    let count_line = lines
        .next()
        .ok_or_else(|| CheckpointError::Format("missing tensor count".into()))?;
    let count: usize = count_line
        .strip_prefix("tensors ")
        .and_then(|s| s.trim().parse().ok())
        .ok_or_else(|| CheckpointError::Format(format!("bad count line {count_line:?}")))?;
    if count != store.len() {
        return Err(CheckpointError::Mismatch(format!(
            "checkpoint has {count} tensors, store has {}",
            store.len()
        )));
    }

    let mut tensors: Vec<Tensor> = Vec::with_capacity(count);
    for i in 0..count {
        let head = lines
            .next()
            .ok_or_else(|| CheckpointError::Format(format!("missing tensor header {i}")))?;
        let mut parts = head.split_whitespace();
        if parts.next() != Some("tensor") {
            return Err(CheckpointError::Format(format!(
                "bad tensor header {head:?}"
            )));
        }
        let name = parts
            .next()
            .ok_or_else(|| CheckpointError::Format("missing tensor name".into()))?;
        let rows: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Format("bad row count".into()))?;
        let cols: usize = parts
            .next()
            .and_then(|s| s.parse().ok())
            .ok_or_else(|| CheckpointError::Format("bad col count".into()))?;

        let id = store.id_at(i);
        if store.name(id) != name {
            return Err(CheckpointError::Mismatch(format!(
                "tensor {i} is {:?} in the store but {name:?} in the checkpoint",
                store.name(id)
            )));
        }
        if store.get(id).shape() != (rows, cols) {
            return Err(CheckpointError::Mismatch(format!(
                "tensor {name}: store shape {:?} vs checkpoint {rows}x{cols}",
                store.get(id).shape()
            )));
        }
        let mut data = Vec::with_capacity(rows * cols);
        for r in 0..rows {
            let line = lines.next().ok_or_else(|| {
                CheckpointError::Format(format!("tensor {name}: missing row {r}"))
            })?;
            for tok in line.split_whitespace() {
                let bits = u32::from_str_radix(tok, 16).map_err(|_| {
                    CheckpointError::Format(format!("tensor {name}: bad value {tok:?}"))
                })?;
                let v = f32::from_bits(bits);
                // A NaN/Inf weight poisons every forward pass while
                // still producing finite-looking allocations downstream;
                // refuse it at the boundary.
                if !v.is_finite() {
                    return Err(CheckpointError::Format(format!(
                        "tensor {name}: non-finite value {v} in row {r}"
                    )));
                }
                data.push(v);
            }
        }
        if data.len() != rows * cols {
            return Err(CheckpointError::Format(format!(
                "tensor {name}: expected {} values, got {}",
                rows * cols,
                data.len()
            )));
        }
        tensors.push(Tensor::from_vec(rows, cols, data));
    }
    // All validated — commit.
    for (i, t) in tensors.into_iter().enumerate() {
        let id = store.id_at(i);
        *store.get_mut(id) = t;
    }
    Ok(())
}

/// Save a store to a file.
pub fn save(store: &ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    std::fs::write(path, to_string(store))?;
    Ok(())
}

/// Load a store from a file.
pub fn load(store: &mut ParamStore, path: impl AsRef<Path>) -> Result<(), CheckpointError> {
    let data = std::fs::read_to_string(path)?;
    load_str(store, &data)
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::rng::seeded;

    fn sample_store(seed: u64) -> ParamStore {
        let mut store = ParamStore::new();
        let mut rng = seeded(seed);
        store.register_xavier("layer1.w", 3, 4, &mut rng);
        store.register("layer1.b", Tensor::zeros(1, 4));
        store.register_xavier("out.w", 4, 2, &mut rng);
        store.register("logstd", Tensor::full(1, 2, -1.0));
        store
    }

    #[test]
    fn roundtrip_is_bit_exact() {
        let store = sample_store(1);
        let text = to_string(&store);
        let mut other = sample_store(2); // same architecture, different init
        load_str(&mut other, &text).unwrap();
        for i in 0..store.len() {
            let a = store.get(store.id_at(i));
            let b = other.get(other.id_at(i));
            assert_eq!(a.data(), b.data(), "tensor {i} not bit-exact");
        }
    }

    #[test]
    fn file_roundtrip() {
        let store = sample_store(3);
        let path = std::env::temp_dir().join("teal_ckpt_test.txt");
        save(&store, &path).unwrap();
        let mut other = sample_store(4);
        load(&mut other, &path).unwrap();
        assert_eq!(
            store.get(store.id_at(0)).data(),
            other.get(other.id_at(0)).data()
        );
        let _ = std::fs::remove_file(path);
    }

    #[test]
    fn rejects_wrong_architecture() {
        let store = sample_store(1);
        let text = to_string(&store);
        // Different arity.
        let mut small = ParamStore::new();
        small.register("w", Tensor::zeros(3, 4));
        assert!(matches!(
            load_str(&mut small, &text),
            Err(CheckpointError::Mismatch(_))
        ));
        // Different shape under the same names.
        let mut wrong_shape = ParamStore::new();
        let mut rng = seeded(9);
        wrong_shape.register_xavier("layer1.w", 3, 5, &mut rng);
        wrong_shape.register("layer1.b", Tensor::zeros(1, 4));
        wrong_shape.register_xavier("out.w", 4, 2, &mut rng);
        wrong_shape.register("logstd", Tensor::full(1, 2, -1.0));
        assert!(matches!(
            load_str(&mut wrong_shape, &text),
            Err(CheckpointError::Mismatch(_))
        ));
    }

    #[test]
    fn rejects_corrupt_input() {
        let mut store = sample_store(1);
        assert!(matches!(
            load_str(&mut store, ""),
            Err(CheckpointError::Format(_))
        ));
        assert!(matches!(
            load_str(&mut store, "not-a-checkpoint\n"),
            Err(CheckpointError::Format(_))
        ));
        let mut text = to_string(&store);
        text.push_str("trailing garbage should be ignored, truncation is not\n");
        // Truncate mid-tensor.
        let cut = text.len() / 2;
        assert!(load_str(&mut store, &text[..cut]).is_err());
    }

    #[test]
    fn rejects_non_finite_values() {
        let store = sample_store(1);
        let text = to_string(&store);
        let mut target = sample_store(2);
        let before = target.snapshot();
        // Replace the last value with NaN, +Inf and -Inf in turn.
        let (head, _) = text.trim_end().rsplit_once(' ').unwrap();
        for bad in [f32::NAN, f32::INFINITY, f32::NEG_INFINITY] {
            let poisoned = format!("{head} {:08x}\n", bad.to_bits());
            match load_str(&mut target, &poisoned) {
                Err(CheckpointError::Format(m)) => {
                    assert!(m.contains("logstd"), "error must name the tensor: {m}")
                }
                other => panic!("non-finite {bad} accepted: {other:?}"),
            }
        }
        for (t, b) in target.snapshot().iter().zip(&before) {
            assert!(t.approx_eq(b, 0.0), "store mutated by rejected load");
        }
    }

    #[test]
    fn failed_load_leaves_store_untouched() {
        let store = sample_store(5);
        let text = to_string(&store);
        let mut target = sample_store(6);
        let before = target.snapshot();
        // Corrupt the last value.
        let bad = text
            .trim_end()
            .rsplit_once(' ')
            .map(|(a, _)| format!("{a} zz"))
            .unwrap();
        assert!(load_str(&mut target, &bad).is_err());
        for (t, b) in target.snapshot().iter().zip(&before) {
            assert!(t.approx_eq(b, 0.0), "store mutated by failed load");
        }
    }
}
