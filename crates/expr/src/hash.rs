//! The hasher behind the arena's table and every expression-keyed map.

use std::collections::HashMap;
use std::hash::{BuildHasherDefault, Hasher};

use crate::ctx::ExprRef;

/// A one-multiply word hasher (FxHash's step): each word is rotated
/// into the state and multiplied by an odd constant, so the high bits
/// mix every input word. It spreads handles and nodes well and is not
/// meant to resist chosen collisions.
#[derive(Clone, Copy, Debug, Default)]
pub struct ExprHasher(u64);

impl ExprHasher {
    fn add(&mut self, word: u64) {
        self.0 = (self.0.rotate_left(5) ^ word).wrapping_mul(0x517c_c1b7_2722_0a95);
    }
}

impl Hasher for ExprHasher {
    fn write(&mut self, bytes: &[u8]) {
        for chunk in bytes.chunks(8) {
            let mut word = [0u8; 8];
            word[..chunk.len()].copy_from_slice(chunk);
            self.add(u64::from_le_bytes(word));
        }
    }

    fn write_u8(&mut self, n: u8) {
        self.add(n.into());
    }

    fn write_u32(&mut self, n: u32) {
        self.add(n.into());
    }

    fn write_u64(&mut self, n: u64) {
        self.add(n);
    }

    fn write_usize(&mut self, n: usize) {
        self.add(n as u64);
    }

    fn finish(&self) -> u64 {
        self.0
    }
}

/// A map keyed by expression handles, hashed with [`ExprHasher`].
pub type ExprMap<V> = HashMap<ExprRef, V, BuildHasherDefault<ExprHasher>>;
