//! The active-request slot table.
//!
//! A dense replacement for the `BTreeMap<RequestId, Request>` the
//! controller's hot path used to walk: requests live in a free-listed slot
//! arena and a `u32` id→slot table makes every lookup a single array
//! index. The controller never iterates the active set in id order, so no
//! ordered structure is needed.

use nfv_model::{Request, RequestId};

/// Sentinel in the id→slot table for an id with no live request.
const NO_SLOT: u32 = u32::MAX;

/// The set of currently active requests, keyed by request id.
#[derive(Debug, Clone, Default)]
pub(crate) struct ActiveSet {
    /// Raw request-id index → slot (`NO_SLOT` when absent). Grows to the
    /// largest id ever seen; ids are dense in every workload generator.
    index: Vec<u32>,
    /// Slot arena; `None` slots are on the free list.
    slots: Vec<Option<Request>>,
    /// Indices of vacant slots, reused LIFO.
    free: Vec<u32>,
    len: usize,
}

impl ActiveSet {
    /// Number of live requests.
    pub(crate) fn len(&self) -> usize {
        self.len
    }

    /// Whether `id` is live.
    pub(crate) fn contains_key(&self, id: RequestId) -> bool {
        self.slot(id).is_some()
    }

    /// The live request with this id, if any.
    pub(crate) fn get(&self, id: RequestId) -> Option<&Request> {
        self.slot(id).and_then(|s| self.slots[s as usize].as_ref())
    }

    /// Inserts a request under its own id, handing it back when the id
    /// is already live or the arena has used every slot number below the
    /// `NO_SLOT` sentinel (a `RequestId` is a `u32`, so that takes
    /// 2³² − 1 live requests).
    pub(crate) fn insert(&mut self, request: Request) -> Result<(), Request> {
        let id = request.id().as_usize();
        if id >= self.index.len() {
            self.index.resize(id + 1, NO_SLOT);
        }
        if self.index[id] != NO_SLOT {
            return Err(request);
        }
        let slot = match self.free.pop() {
            Some(slot) => {
                self.slots[slot as usize] = Some(request);
                slot
            }
            None => {
                let next = u32::try_from(self.slots.len()).ok();
                let Some(slot) = next.filter(|&slot| slot != NO_SLOT) else {
                    return Err(request);
                };
                self.slots.push(Some(request));
                slot
            }
        };
        self.index[id] = slot;
        self.len += 1;
        Ok(())
    }

    /// Removes and returns the request with this id, if live.
    pub(crate) fn remove(&mut self, id: RequestId) -> Option<Request> {
        let slot = self.slot(id)?;
        let request = self.slots[slot as usize].take()?;
        self.index[id.as_usize()] = NO_SLOT;
        self.free.push(slot);
        self.len -= 1;
        Some(request)
    }

    fn slot(&self, id: RequestId) -> Option<u32> {
        self.index
            .get(id.as_usize())
            .copied()
            .filter(|&slot| slot != NO_SLOT)
    }

    fn iter(&self) -> impl Iterator<Item = &Request> {
        self.slots.iter().filter_map(Option::as_ref)
    }

    /// The live requests in ascending id order — the checkpoint shape,
    /// O(live) where a clone would copy the whole id table. Rebuilding a
    /// set by [`insert`](Self::insert)ing these is logically equal to the
    /// original (slot layout is not part of the set's logical state;
    /// every read goes through the id table).
    pub(crate) fn export(&self) -> Vec<Request> {
        let mut requests: Vec<Request> = self.iter().cloned().collect();
        requests.sort_unstable_by_key(Request::id);
        requests
    }
}

/// Logical equality: the same id→request mapping, regardless of how the
/// slots and free list happen to be laid out after different mutation
/// histories.
impl PartialEq for ActiveSet {
    fn eq(&self, other: &Self) -> bool {
        self.len == other.len && self.iter().all(|r| other.get(r.id()) == Some(r))
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use nfv_model::{ArrivalRate, DeliveryProbability, ServiceChain, VnfId};

    fn request(id: u32) -> Request {
        Request::new(
            RequestId::new(id),
            ServiceChain::new(vec![VnfId::new(0)]).unwrap(),
            ArrivalRate::new(1.0 + f64::from(id)).unwrap(),
            DeliveryProbability::PERFECT,
        )
    }

    #[test]
    fn insert_get_remove_round_trip() {
        let mut set = ActiveSet::default();
        assert_eq!(set.len(), 0);
        assert_eq!(set.insert(request(5)), Ok(()));
        assert_eq!(set.insert(request(2)), Ok(()));
        assert_eq!(
            set.insert(request(5)),
            Err(request(5)),
            "a live id is refused"
        );
        assert_eq!(set.len(), 2);
        assert!(set.contains_key(RequestId::new(5)));
        assert!(!set.contains_key(RequestId::new(3)));
        assert_eq!(set.get(RequestId::new(2)), Some(&request(2)));
        assert_eq!(set.remove(RequestId::new(5)), Some(request(5)));
        assert_eq!(set.remove(RequestId::new(5)), None);
        assert_eq!(set.len(), 1);
    }

    #[test]
    fn export_is_id_sorted_and_rebuilds_logically_equal() {
        let mut set = ActiveSet::default();
        for id in [7, 1, 9, 3] {
            set.insert(request(id)).unwrap();
        }
        set.remove(RequestId::new(9));
        let exported = set.export();
        let ids: Vec<u32> = exported.iter().map(|r| r.id().index()).collect();
        assert_eq!(ids, vec![1, 3, 7]);
        let mut rebuilt = ActiveSet::default();
        for request in exported {
            rebuilt.insert(request).unwrap();
        }
        assert_eq!(rebuilt, set);
    }

    #[test]
    fn slots_are_reused_and_equality_is_logical() {
        let mut set_a = ActiveSet::default();
        for id in 0..8 {
            set_a.insert(request(id)).unwrap();
        }
        for id in [1, 3, 5] {
            set_a.remove(RequestId::new(id));
        }
        // Freed slots are recycled before the arena grows.
        let slots_before = set_a.slots.len();
        set_a.insert(request(9)).unwrap();
        set_a.insert(request(10)).unwrap();
        assert_eq!(set_a.slots.len(), slots_before);

        // A set with the same contents but a different mutation history
        // (hence different slot layout) compares equal.
        let mut set_b = ActiveSet::default();
        for id in [10, 9, 7, 6, 4, 2, 0] {
            set_b.insert(request(id)).unwrap();
        }
        assert_eq!(set_a, set_b);
        set_b.remove(RequestId::new(0));
        assert_ne!(set_a, set_b);
    }
}
