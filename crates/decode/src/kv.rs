//! Per-sequence K/V cache arena.
//!
//! Decode recomputes nothing: every step appends one key/value row per
//! layer and attends over everything cached so far. The arena owns that
//! state for all in-flight sequences, with three properties the
//! scheduler leans on:
//!
//! * **Reservation accounting** — a sequence reserves its worst-case
//!   token footprint (`prompt + max_new`) at admission. [`KvArena::alloc`]
//!   refuses when the reservation would exceed the arena's token
//!   capacity, so admission is the single backpressure point and a step
//!   can never fail on an out-of-memory append.
//! * **Slot reuse** — released slots go on a free list and keep their
//!   (cleared) buffers, so steady-state decode does not grow the arena.
//! * **Step transactionality** — a decode step appends rows layer by
//!   layer ([`KvArena::append_row`]) and only [`KvArena::commit`]s once
//!   the whole step survived. [`KvArena::rollback`] truncates every
//!   layer back to the committed length, which is what makes fault-retry
//!   a bit-identical recompute instead of a corrupted cache.

use lancet_serve::{Result, ServeError};

/// Handle to one sequence's cache lines. Cheap to copy; valid until the
/// slot is [released](KvArena::release).
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash)]
pub struct SlotId(usize);

#[derive(Debug, Default)]
struct Slot {
    active: bool,
    /// Worst-case tokens reserved at admission (counted against the arena).
    reserve: usize,
    /// Tokens whose K/V rows are committed in every layer.
    len: usize,
    /// Per-layer key rows, `len * hidden` floats each (plus at most one
    /// uncommitted row mid-step).
    k: Vec<Vec<f32>>,
    /// Per-layer value rows, same layout as `k`.
    v: Vec<Vec<f32>>,
}

/// Arena of per-sequence, per-layer K/V buffers with token-capacity
/// accounting. See the module docs of `kv.rs` for the contract.
#[derive(Debug)]
pub struct KvArena {
    layers: usize,
    hidden: usize,
    capacity_tokens: usize,
    reserved_tokens: usize,
    slots: Vec<Slot>,
    free: Vec<usize>,
}

impl KvArena {
    /// New arena for a model with `layers` transformer blocks and
    /// `hidden` channels, able to hold `capacity_tokens` reserved tokens
    /// across all in-flight sequences.
    pub fn new(layers: usize, hidden: usize, capacity_tokens: usize) -> Self {
        KvArena {
            layers,
            hidden,
            capacity_tokens,
            reserved_tokens: 0,
            slots: Vec::new(),
            free: Vec::new(),
        }
    }

    /// Tokens currently reserved by active slots.
    pub fn reserved_tokens(&self) -> usize {
        self.reserved_tokens
    }

    /// Reserve a slot for a sequence that will hold at most `tokens`
    /// K/V rows. Returns `None` when the reservation does not fit —
    /// the caller keeps the request queued until a slot frees up.
    pub fn alloc(&mut self, tokens: usize) -> Option<SlotId> {
        if self.reserved_tokens + tokens > self.capacity_tokens {
            return None;
        }
        self.reserved_tokens += tokens;
        let idx = match self.free.pop() {
            Some(idx) => idx,
            None => {
                self.slots.push(Slot::default());
                self.slots.len() - 1
            }
        };
        let slot = &mut self.slots[idx];
        slot.active = true;
        slot.reserve = tokens;
        slot.len = 0;
        slot.k.resize_with(self.layers, Vec::new);
        slot.v.resize_with(self.layers, Vec::new);
        for l in 0..self.layers {
            slot.k[l].clear();
            slot.v[l].clear();
        }
        Some(SlotId(idx))
    }

    /// Release a slot: drop its rows, return its reservation, and queue
    /// it for reuse.
    pub fn release(&mut self, slot: SlotId) {
        let s = &mut self.slots[slot.0];
        assert!(s.active, "release of an inactive slot");
        s.active = false;
        self.reserved_tokens -= s.reserve;
        s.reserve = 0;
        s.len = 0;
        self.free.push(slot.0);
    }

    /// Bulk-seed a freshly allocated slot from a prefill pass:
    /// `layer_kv[l]` holds `(k, v)` slices of `tokens * hidden` floats
    /// for layer `l`. Sets the committed length to `tokens`.
    pub fn seed(&mut self, slot: SlotId, layer_kv: &[(&[f32], &[f32])], tokens: usize) -> Result<()> {
        let s = &mut self.slots[slot.0];
        if layer_kv.len() != self.layers {
            return Err(ServeError::Exec(format!(
                "kv seed expects {} layers, got {}",
                self.layers,
                layer_kv.len()
            )));
        }
        if tokens > s.reserve {
            return Err(ServeError::Exec(format!(
                "kv seed of {} tokens exceeds slot reservation of {}",
                tokens, s.reserve
            )));
        }
        for (l, (k, v)) in layer_kv.iter().enumerate() {
            if k.len() != tokens * self.hidden || v.len() != tokens * self.hidden {
                return Err(ServeError::Exec(format!(
                    "kv seed layer {l}: expected {} floats per side, got k={} v={}",
                    tokens * self.hidden,
                    k.len(),
                    v.len()
                )));
            }
            s.k[l].clear();
            s.k[l].extend_from_slice(k);
            s.v[l].clear();
            s.v[l].extend_from_slice(v);
        }
        s.len = tokens;
        Ok(())
    }

    /// Append one uncommitted token row to `layer`. The row becomes
    /// visible to [`k_data`](Self::k_data)/[`v_data`](Self::v_data)
    /// immediately (the current token attends to itself); it only
    /// becomes durable on [`commit`](Self::commit).
    pub fn append_row(&mut self, slot: SlotId, layer: usize, k_row: &[f32], v_row: &[f32]) -> Result<()> {
        let s = &mut self.slots[slot.0];
        debug_assert_eq!(k_row.len(), self.hidden);
        debug_assert_eq!(v_row.len(), self.hidden);
        if s.len + 1 > s.reserve {
            return Err(ServeError::Exec(format!(
                "kv append past slot reservation ({} tokens)",
                s.reserve
            )));
        }
        if s.k[layer].len() != s.len * self.hidden {
            return Err(ServeError::Exec(format!(
                "kv append layer {layer}: uncommitted row already present"
            )));
        }
        s.k[layer].extend_from_slice(k_row);
        s.v[layer].extend_from_slice(v_row);
        Ok(())
    }

    /// Commit the step's appended rows: the slot's length grows by one.
    pub fn commit(&mut self, slot: SlotId) {
        let s = &mut self.slots[slot.0];
        for l in 0..self.layers {
            debug_assert_eq!(
                s.k[l].len(),
                (s.len + 1) * self.hidden,
                "commit without a full set of appended rows"
            );
        }
        s.len += 1;
    }

    /// Discard any uncommitted rows, truncating every layer back to the
    /// committed length. Retrying the step afterwards recomputes the
    /// exact same rows.
    pub fn rollback(&mut self, slot: SlotId) {
        let s = &mut self.slots[slot.0];
        for l in 0..self.layers {
            s.k[l].truncate(s.len * self.hidden);
            s.v[l].truncate(s.len * self.hidden);
        }
    }

    /// Committed token count for a slot.
    pub fn len(&self, slot: SlotId) -> usize {
        self.slots[slot.0].len
    }

    /// Key rows for `(slot, layer)`, including an uncommitted row if one
    /// was just appended.
    pub fn k_data(&self, slot: SlotId, layer: usize) -> &[f32] {
        &self.slots[slot.0].k[layer]
    }

    /// Value rows for `(slot, layer)`, including an uncommitted row if
    /// one was just appended.
    pub fn v_data(&self, slot: SlotId, layer: usize) -> &[f32] {
        &self.slots[slot.0].v[layer]
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn alloc_accounts_reservations_and_reuses_slots() {
        let mut arena = KvArena::new(2, 4, 10);
        let a = arena.alloc(6).expect("fits");
        assert!(arena.alloc(5).is_none(), "6 + 5 > 10 must refuse");
        let b = arena.alloc(4).expect("6 + 4 fits exactly");
        assert_eq!(arena.reserved_tokens(), 10);
        arena.release(a);
        assert_eq!(arena.reserved_tokens(), 4);
        let c = arena.alloc(3).expect("fits after release");
        // The freed slot index is reused rather than growing the arena.
        assert_eq!(c, a);
        arena.release(b);
        arena.release(c);
        assert_eq!(arena.reserved_tokens(), 0);
    }

    #[test]
    fn rollback_discards_uncommitted_rows() {
        let mut arena = KvArena::new(2, 2, 8);
        let s = arena.alloc(4).unwrap();
        arena.seed(s, &[(&[1.0, 2.0], &[3.0, 4.0]), (&[5.0, 6.0], &[7.0, 8.0])], 1).unwrap();
        assert_eq!(arena.len(s), 1);

        arena.append_row(s, 0, &[9.0, 9.0], &[9.0, 9.0]).unwrap();
        assert_eq!(arena.k_data(s, 0), &[1.0, 2.0, 9.0, 9.0]);
        arena.rollback(s);
        assert_eq!(arena.k_data(s, 0), &[1.0, 2.0]);
        assert_eq!(arena.len(s), 1);

        arena.append_row(s, 0, &[9.0, 9.0], &[9.0, 9.0]).unwrap();
        arena.append_row(s, 1, &[9.0, 9.0], &[9.0, 9.0]).unwrap();
        arena.commit(s);
        assert_eq!(arena.len(s), 2);
    }

    #[test]
    fn seed_validates_shape_and_reservation() {
        let mut arena = KvArena::new(1, 2, 8);
        let s = arena.alloc(2).unwrap();
        assert!(arena.seed(s, &[(&[1.0; 6], &[1.0; 6])], 3).is_err(), "over reservation");
        assert!(arena.seed(s, &[(&[1.0; 3], &[1.0; 4])], 2).is_err(), "bad volume");
        arena.seed(s, &[(&[1.0; 4], &[2.0; 4])], 2).unwrap();
        assert!(
            arena.append_row(s, 0, &[0.0; 2], &[0.0; 2]).is_err(),
            "append past reservation must refuse"
        );
    }
}
