//! Size-classed free list of `f32` buffers: the one buffer pool behind the
//! tape arena ([`Tape`](crate::graph::Tape)) and the inference workspaces
//! ([`InferScratch`](crate::infer::InferScratch)).
//!
//! Buffers are filed by capacity into size classes, so a buffer freed by
//! one shape serves any later request that fits its class. Lengths up to
//! [`EXACT`] floats get one class each; above that there are four classes
//! per octave (`2^e · {1, 1.25, 1.5, 1.75}`), so a class buffer is at most
//! 25% larger than the request it serves. Both directions are O(1): the
//! class of a length is a few shifts off its highest set bit, and each
//! class is a stack.

/// Lengths up to this many floats get one exact class each.
const EXACT: usize = 8;

/// The smallest class whose size is at least `len` (`len >= 1`): the class
/// a request for `len` floats draws from.
fn class_of(len: usize) -> usize {
    if len <= EXACT {
        return len - 1;
    }
    // Class sizes above EXACT are the multiples of a quarter octave
    // `q = 2^(e-2)` in `(2^e, 2^(e+1)]`; the class is the first one > len - 1.
    let m = len - 1;
    let e = m.ilog2() as usize;
    EXACT + 4 * (e - 3) + (m >> (e - 2)) - 4
}

/// The largest class whose size is at most `cap` (`cap >= 1`): the class a
/// buffer of capacity `cap` can serve every request of.
fn floor_class(cap: usize) -> usize {
    if cap <= EXACT {
        return cap - 1;
    }
    let e = cap.ilog2() as usize;
    EXACT - 1 + 4 * (e - 3) + (cap >> (e - 2)) - 4
}

/// Float capacity of class `c`.
fn class_size(c: usize) -> usize {
    if c < EXACT {
        return c + 1;
    }
    let step = c - (EXACT - 1);
    (4 + step % 4) << (1 + step / 4)
}

/// Size-classed free list retaining at most `CAP` floats of capacity.
///
/// `take_dirty` pops a buffer from the request's class (or allocates one
/// at the full class size, so it can serve the whole class later) and sets
/// its length; `put` files a buffer under the largest class its capacity
/// covers. Retention counts capacity, not length, so the cap bounds the
/// memory actually pinned.
#[derive(Default)]
pub(crate) struct BufArena<const CAP: usize> {
    classes: Vec<Vec<Vec<f32>>>,
    retained: usize,
}

impl<const CAP: usize> BufArena<CAP> {
    /// A buffer of exactly `len` floats with arbitrary contents: stale
    /// values of whatever shape last used it. Callers must fully overwrite
    /// it before reading.
    pub(crate) fn take_dirty(&mut self, len: usize) -> Vec<f32> {
        if len == 0 {
            return Vec::new();
        }
        let c = class_of(len);
        match self.classes.get_mut(c).and_then(Vec::pop) {
            Some(mut buf) => {
                self.retained -= buf.capacity();
                if buf.len() >= len {
                    buf.truncate(len);
                } else {
                    buf.resize(len, 0.0);
                }
                buf
            }
            None => {
                let mut buf = Vec::with_capacity(class_size(c));
                buf.resize(len, 0.0);
                buf
            }
        }
    }

    /// A zero-filled buffer of exactly `len` floats.
    pub(crate) fn take_zeroed(&mut self, len: usize) -> Vec<f32> {
        let mut buf = self.take_dirty(len);
        buf.fill(0.0);
        buf
    }

    /// Return a buffer for reuse (dropped silently past the retention cap).
    pub(crate) fn put(&mut self, buf: Vec<f32>) {
        let cap = buf.capacity();
        if cap == 0 || self.retained + cap > CAP {
            return;
        }
        let c = floor_class(cap);
        if self.classes.len() <= c {
            self.classes.resize_with(c + 1, Vec::new);
        }
        self.retained += cap;
        self.classes[c].push(buf);
    }

    /// Float capacity currently held on the free list.
    pub(crate) fn retained(&self) -> usize {
        self.retained
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn every_length_fits_its_class_with_bounded_slack() {
        for len in 1..=1 << 16 {
            let c = class_of(len);
            let size = class_size(c);
            assert!(size >= len, "len {len} -> class {c} of size {size}");
            if len <= EXACT {
                assert_eq!(size, len);
            } else {
                assert!(
                    4 * size <= 5 * len,
                    "len {len}: class size {size} over 25% slack"
                );
            }
            // And it is the smallest such class.
            assert!(
                c == 0 || class_size(c - 1) < len,
                "len {len}: class {c} not minimal"
            );
        }
        for e in 17..40 {
            for len in [
                (1usize << e) - 1,
                1 << e,
                (1 << e) + 1,
                (1 << e) * 5 / 4 + 1,
            ] {
                let size = class_size(class_of(len));
                assert!(size >= len && 4 * size <= 5 * len, "len {len} -> {size}");
            }
        }
    }

    #[test]
    fn class_of_a_class_size_is_that_class() {
        for c in 0..120 {
            let size = class_size(c);
            assert!(class_size(c + 1) > size, "class sizes must increase");
            assert_eq!(class_of(size), c);
            assert_eq!(floor_class(size), c);
            // Capacity just short of the next class still files here.
            assert_eq!(floor_class(class_size(c + 1) - 1), c);
        }
    }

    #[test]
    fn take_serves_any_length_of_the_class_from_one_buffer() {
        let mut a = BufArena::<{ 1 << 20 }>::default();
        let buf = a.take_dirty(33);
        assert_eq!(buf.len(), 33);
        assert_eq!(buf.capacity(), class_size(class_of(33)));
        let ptr = buf.as_ptr();
        a.put(buf);
        assert_eq!(a.retained(), 40);
        // Shorter and longer requests in the same class reuse the buffer.
        let buf = a.take_dirty(34);
        assert_eq!((buf.len(), buf.as_ptr()), (34, ptr));
        assert_eq!(a.retained(), 0);
        a.put(buf);
        let mut buf = a.take_dirty(40);
        assert_eq!((buf.len(), buf.as_ptr()), (40, ptr));
        buf.fill(7.0);
        a.put(buf);
        let zeroed = a.take_zeroed(35);
        assert_eq!(zeroed.as_ptr(), ptr);
        assert!(zeroed.iter().all(|&x| x == 0.0));
    }

    #[test]
    fn put_files_an_odd_capacity_under_the_class_it_covers() {
        let mut a = BufArena::<{ 1 << 20 }>::default();
        // Capacity 45 sits between classes 40 and 48: it covers class 40
        // only, and retention counts all 45 floats.
        let mut odd = Vec::with_capacity(45);
        odd.extend((0..11).map(|i| i as f32));
        let cap = odd.capacity();
        assert!((40..48).contains(&cap));
        let ptr = odd.as_ptr();
        a.put(odd);
        assert_eq!(a.retained(), cap);
        let miss = a.take_dirty(41);
        assert_ne!(
            miss.as_ptr(),
            ptr,
            "class 48 must not hand out a 45-float buffer"
        );
        let hit = a.take_dirty(40);
        assert_eq!((hit.len(), hit.as_ptr()), (40, ptr));
        assert_eq!(a.retained(), 0);
    }

    #[test]
    fn retention_counts_capacity_against_the_cap() {
        let mut a = BufArena::<100>::default();
        let mut v = Vec::with_capacity(64);
        v.push(1.0f32);
        a.put(v);
        assert_eq!(a.retained(), 64);
        // A second 64-float buffer would pin 128 > 100 floats: dropped.
        a.put(Vec::with_capacity(64));
        assert_eq!(a.retained(), 64);
        a.put(Vec::new());
        assert_eq!(a.retained(), 64);
        assert!(a.take_dirty(0).is_empty());
    }
}
