//! Thread-local scratch arena for reusable `f32` buffers.
//!
//! Numeric hot paths (GEMM packing panels, im2col column matrices, kernel
//! output buffers) need large temporary buffers every call. Allocating a
//! fresh `vec![0.0; n]` each time puts the allocator on the critical path
//! of every matmul in the training loop. This module keeps a small
//! per-thread free list of previously used buffers and hands them back out:
//!
//! * [`take`] returns an RAII [`Scratch`] guard that recycles its buffer
//!   into the arena on drop — the right shape for kernel-internal
//!   temporaries (packing panels, column matrices).
//! * [`take_aligned`] is [`take`] with the window lifted onto a 32-byte
//!   boundary and without the zero fill, for buffers consumed by SIMD
//!   kernels that overwrite them before reading (GEMM packing panels): a
//!   reused buffer keeps its last user's values.
//! * [`take_vec`] / [`recycle`] split the two halves apart for buffers
//!   whose ownership must escape (e.g. a kernel output that becomes a
//!   tensor's backing storage and is recycled later by the tensor's drop).
//!
//! Every take but [`take_aligned`] is zero-filled, so a reused buffer is
//! indistinguishable from a fresh `vec![0.0; n]`. Reuse is bounded: at most
//! [`MAX_BUFS`] buffers / [`MAX_BYTES`] bytes are retained per thread
//! (smallest evicted first), and buffers under [`MIN_POOL_LEN`] elements
//! bypass the arena entirely — pooling tiny allocations would cost more in
//! bookkeeping than it saves. Pool worker threads are persistent, so their
//! arenas stay warm across the whole training loop.
//!
//! Telemetry: `scratch.hits` / `scratch.misses` count arena outcomes for
//! pooled-size requests (following the PR 3 counter conventions);
//! [`thread_stats`] exposes the same numbers per thread for tests without
//! requiring telemetry collection to be enabled.

use crate::telemetry;
use std::cell::RefCell;
use std::ops::{Deref, DerefMut};

/// Requests below this many elements (4 KiB) skip the arena: they are cheap
/// to allocate and would evict the large panels the arena exists for.
pub const MIN_POOL_LEN: usize = 1024;

/// Maximum buffers retained per thread.
pub const MAX_BUFS: usize = 16;

/// Maximum retained capacity per thread, in bytes (64 MiB).
pub const MAX_BYTES: usize = 64 << 20;

struct Arena {
    /// Free buffers, unordered; eviction removes the smallest capacity.
    bufs: Vec<Vec<f32>>,
    /// Total capacity bytes across `bufs`.
    bytes: usize,
    hits: u64,
    misses: u64,
}

impl Arena {
    const fn new() -> Self {
        Arena { bufs: Vec::new(), bytes: 0, hits: 0, misses: 0 }
    }

    /// Best-fit take: the smallest free buffer that can hold `len`.
    fn pop_fit(&mut self, len: usize) -> Option<Vec<f32>> {
        let mut best: Option<usize> = None;
        for (i, b) in self.bufs.iter().enumerate() {
            if b.capacity() >= len
                && best.map_or(true, |j| b.capacity() < self.bufs[j].capacity())
            {
                best = Some(i);
            }
        }
        let i = best?;
        let buf = self.bufs.swap_remove(i);
        self.bytes -= buf.capacity() * 4;
        Some(buf)
    }

    fn push(&mut self, buf: Vec<f32>) {
        self.bytes += buf.capacity() * 4;
        self.bufs.push(buf);
        while self.bufs.len() > MAX_BUFS || self.bytes > MAX_BYTES {
            let smallest = self
                .bufs
                .iter()
                .enumerate()
                .min_by_key(|(_, b)| b.capacity())
                .map(|(i, _)| i)
                .expect("non-empty over cap");
            let evicted = self.bufs.swap_remove(smallest);
            self.bytes -= evicted.capacity() * 4;
        }
    }
}

std::thread_local! {
    static ARENA: RefCell<Arena> = const { RefCell::new(Arena::new()) };
}

/// A zero-filled buffer of exactly `len` elements, reusing a previously
/// recycled allocation when one fits. The vec's capacity may exceed `len`.
pub fn take_vec(len: usize) -> Vec<f32> {
    take_raw(len, true)
}

/// A buffer of exactly `len` elements from the arena: zero-filled when
/// `zeroed`, otherwise a recycled buffer keeps its stale (but initialized)
/// prefix and only a tail beyond its old length is zero-filled.
fn take_raw(len: usize, zeroed: bool) -> Vec<f32> {
    if len < MIN_POOL_LEN {
        return vec![0.0; len];
    }
    // `try_with`: takes during thread teardown (after the arena's
    // destructor ran) just fall through to a fresh allocation.
    let reused = ARENA
        .try_with(|a| {
            let mut a = a.borrow_mut();
            match a.pop_fit(len) {
                Some(buf) => {
                    a.hits += 1;
                    Some(buf)
                }
                None => {
                    a.misses += 1;
                    None
                }
            }
        })
        .ok()
        .flatten();
    match reused {
        Some(mut buf) => {
            telemetry::SCRATCH_HITS.add(1);
            if zeroed {
                buf.clear();
            } else {
                buf.truncate(len);
            }
            buf.resize(len, 0.0);
            buf
        }
        None => {
            telemetry::SCRATCH_MISSES.add(1);
            vec![0.0; len]
        }
    }
}

/// Returns a buffer to the current thread's arena for future [`take_vec`]
/// calls. Buffers under [`MIN_POOL_LEN`] capacity are simply dropped.
pub fn recycle(buf: Vec<f32>) {
    if buf.capacity() < MIN_POOL_LEN {
        return;
    }
    // Dropping a buffer during thread teardown is fine — it just frees.
    let _ = ARENA.try_with(|a| a.borrow_mut().push(buf));
}

/// `(hits, misses)` of the current thread's arena, independent of whether
/// telemetry collection is enabled. Tests use the delta across a workload.
pub fn thread_stats() -> (u64, u64) {
    ARENA.with(|a| {
        let a = a.borrow();
        (a.hits, a.misses)
    })
}

/// RAII scratch buffer: derefs to `[f32]`, recycles itself on drop.
pub struct Scratch {
    buf: Option<Vec<f32>>,
}

impl Scratch {
    /// Consumes the guard, keeping the buffer out of the arena.
    pub fn into_vec(mut self) -> Vec<f32> {
        self.buf.take().expect("scratch buffer present")
    }
}

impl Deref for Scratch {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        self.buf.as_deref().expect("scratch buffer present")
    }
}

impl DerefMut for Scratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        self.buf.as_deref_mut().expect("scratch buffer present")
    }
}

impl Drop for Scratch {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            recycle(buf);
        }
    }
}

/// A zero-filled RAII scratch buffer of `len` elements (see [`take_vec`]).
pub fn take(len: usize) -> Scratch {
    Scratch { buf: Some(take_vec(len)) }
}

/// SIMD vector alignment target for [`take_aligned`], in bytes (AVX2).
pub const SIMD_ALIGN: usize = 32;

/// RAII scratch buffer whose visible `[f32]` window starts on a
/// [`SIMD_ALIGN`]-byte boundary. Deref yields exactly the requested
/// length; the (at most `SIMD_ALIGN/4 - 1` element) alignment slack at
/// the front of the backing allocation is hidden. Recycles on drop.
pub struct AlignedScratch {
    buf: Option<Vec<f32>>,
    off: usize,
    len: usize,
}

impl Deref for AlignedScratch {
    type Target = [f32];
    fn deref(&self) -> &[f32] {
        let b = self.buf.as_deref().expect("scratch buffer present");
        &b[self.off..self.off + self.len]
    }
}

impl DerefMut for AlignedScratch {
    fn deref_mut(&mut self) -> &mut [f32] {
        let (off, len) = (self.off, self.len);
        let b = self.buf.as_deref_mut().expect("scratch buffer present");
        &mut b[off..off + len]
    }
}

impl Drop for AlignedScratch {
    fn drop(&mut self) {
        if let Some(buf) = self.buf.take() {
            recycle(buf);
        }
    }
}

/// An RAII scratch buffer of `len` elements whose first element sits on a
/// [`SIMD_ALIGN`]-byte boundary, so vector kernels reading it in 32-byte
/// lanes never take split-load penalties. Not zero-filled: a recycled
/// buffer comes back holding whatever its last user left in it (still
/// initialized `f32`s, so this is plain safe Rust). For buffers the caller
/// overwrites before it reads any element — GEMM packing panels — where
/// zero-filling a panel on every call would cost more than a small product
/// itself.
///
/// Works by over-allocating `SIMD_ALIGN/4 - 1` elements and offsetting into
/// the buffer; the offset is recomputed on every take because the arena may
/// hand back a different allocation each time. Falls back to offset 0 (a
/// plain, possibly unaligned window) in the degenerate case where the
/// allocator returns a pointer that cannot be aligned — callers must still
/// use unaligned loads for correctness and get alignment as a performance
/// property.
pub fn take_aligned(len: usize) -> AlignedScratch {
    aligned(take_raw(len + ALIGN_SLACK, false), len)
}

const ALIGN_SLACK: usize = SIMD_ALIGN / 4 - 1;

/// Wraps `buf` (at least `len + ALIGN_SLACK` long) with its window lifted
/// onto the first `SIMD_ALIGN`-byte boundary.
fn aligned(buf: Vec<f32>, len: usize) -> AlignedScratch {
    let mis = buf.as_ptr().align_offset(SIMD_ALIGN);
    let off = if mis <= ALIGN_SLACK { mis } else { 0 };
    AlignedScratch { buf: Some(buf), off, len }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn reuse_after_recycle_is_a_hit() {
        let (h0, m0) = thread_stats();
        let buf = take_vec(MIN_POOL_LEN * 2);
        let cap = buf.capacity();
        recycle(buf);
        let again = take_vec(MIN_POOL_LEN * 2);
        assert_eq!(again.capacity(), cap, "same allocation must come back");
        assert!(again.iter().all(|&x| x == 0.0), "reused buffer must be zeroed");
        let (h1, m1) = thread_stats();
        assert_eq!(h1 - h0, 1, "second take must hit");
        assert_eq!(m1 - m0, 1, "first take must miss");
    }

    #[test]
    fn tiny_requests_bypass_the_arena() {
        let (h0, m0) = thread_stats();
        let buf = take_vec(8);
        recycle(buf);
        let _again = take_vec(8);
        assert_eq!(thread_stats(), (h0, m0), "tiny takes must not touch stats");
    }

    #[test]
    fn guard_recycles_on_drop() {
        {
            let mut s = take(MIN_POOL_LEN * 4);
            s[0] = 3.5;
            assert_eq!(s.len(), MIN_POOL_LEN * 4);
        }
        let (h0, _) = thread_stats();
        let s = take(MIN_POOL_LEN * 4);
        let (h1, _) = thread_stats();
        assert_eq!(h1 - h0, 1, "guard drop must have recycled its buffer");
        assert!(s.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn retention_is_bounded() {
        // Recycle more buffers than the arena retains; it must stay capped.
        for _ in 0..(MAX_BUFS + 8) {
            recycle(vec![0.0; MIN_POOL_LEN]);
        }
        let retained = ARENA.with(|a| a.borrow().bufs.len());
        assert!(retained <= MAX_BUFS, "retained {retained} > cap {MAX_BUFS}");
        let bytes = ARENA.with(|a| a.borrow().bytes);
        assert!(bytes <= MAX_BYTES);
    }

    #[test]
    fn aligned_take_is_simd_aligned_and_zeroed() {
        // Each test runs on a fresh thread, so every take here misses the
        // arena (or bypasses it) and gets a fresh, zero-filled allocation.
        for len in [1usize, 7, MIN_POOL_LEN, MIN_POOL_LEN * 3 + 5] {
            let s = take_aligned(len);
            assert_eq!(s.len(), len);
            assert_eq!(s.as_ptr() as usize % SIMD_ALIGN, 0, "len {len} window misaligned");
            assert!(s.iter().all(|&x| x == 0.0));
        }
        let (h0, m0) = thread_stats();
        for _ in 0..2 {
            let _tiny = take_aligned(8);
        }
        assert_eq!(thread_stats(), (h0, m0), "tiny aligned takes must not touch stats");
    }

    #[test]
    fn aligned_take_recycles_through_the_arena() {
        let len = MIN_POOL_LEN * 2 + 5;
        {
            let mut s = take_aligned(len);
            s.fill(7.0);
        }
        let (h0, _) = thread_stats();
        let s2 = take_aligned(len);
        let (h1, _) = thread_stats();
        assert_eq!(h1 - h0, 1, "second aligned take must hit the arena");
        assert_eq!(s2.len(), len);
        assert_eq!(s2.as_ptr() as usize % SIMD_ALIGN, 0, "window misaligned");
        assert!(s2.iter().all(|&x| x == 7.0), "an aligned take must not zero-fill");
    }

    #[test]
    fn best_fit_prefers_smallest_adequate_buffer() {
        // Drain the arena so this test owns its contents.
        ARENA.with(|a| a.borrow_mut().bufs.clear());
        ARENA.with(|a| a.borrow_mut().bytes = 0);
        recycle(vec![0.0; MIN_POOL_LEN * 8]);
        recycle(vec![0.0; MIN_POOL_LEN * 2]);
        let got = take_vec(MIN_POOL_LEN);
        assert!(
            got.capacity() < MIN_POOL_LEN * 8,
            "should have picked the smaller buffer, got capacity {}",
            got.capacity()
        );
    }
}
