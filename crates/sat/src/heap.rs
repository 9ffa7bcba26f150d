//! An indexed max-heap ordering variables by VSIDS activity.

use crate::lit::Var;

/// A binary max-heap of variables keyed by an external activity array,
/// supporting O(log n) increase-key (after an activity bump) and removal.
#[derive(Clone, Debug, Default)]
pub struct VarHeap {
    heap: Vec<Var>,
    /// Position of each variable in `heap`, or `usize::MAX` if absent.
    positions: Vec<usize>,
}

const ABSENT: usize = usize::MAX;

impl VarHeap {
    /// Creates an empty heap.
    pub fn new() -> Self {
        Self::default()
    }

    /// Ensures capacity for variables up to `n - 1`. Every variable must
    /// be covered before it is inserted.
    pub fn grow(&mut self, n: usize) {
        if self.positions.len() < n {
            self.positions.resize(n, ABSENT);
        }
    }

    /// True if the heap contains no variables.
    #[allow(dead_code)] // used by tests and kept for API symmetry
    pub fn is_empty(&self) -> bool {
        self.heap.is_empty()
    }

    /// Number of queued variables.
    #[allow(dead_code)] // used by tests and kept for API symmetry
    pub fn len(&self) -> usize {
        self.heap.len()
    }

    /// True if `v` is queued.
    pub fn contains(&self, v: Var) -> bool {
        self.positions[v.index()] != ABSENT
    }

    /// Inserts `v` if absent.
    pub fn insert(&mut self, v: Var, activity: &[f64]) {
        if self.contains(v) {
            return;
        }
        self.heap.push(v);
        self.sift_up(self.heap.len() - 1, activity);
    }

    /// Removes and returns the variable with the highest activity.
    pub fn pop(&mut self, activity: &[f64]) -> Option<Var> {
        let last = self.heap.pop()?;
        if self.heap.is_empty() {
            self.positions[last.index()] = ABSENT;
            return Some(last);
        }
        let top = self.heap[0];
        self.positions[top.index()] = ABSENT;
        self.heap[0] = last;
        self.sift_down(0, activity);
        Some(top)
    }

    /// Restores heap order for `v` after its activity increased.
    pub fn update(&mut self, v: Var, activity: &[f64]) {
        let p = self.positions[v.index()];
        if p != ABSENT {
            self.sift_up(p, activity);
        }
    }

    /// Moves the variable at `i` up to its place. Parents move down into
    /// the hole instead of being swapped, but the comparisons are those
    /// of a swap-based sift, so the layout and tie-breaks are identical.
    fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let a = activity[v.index()];
        while i > 0 {
            let parent = (i - 1) / 2;
            let pv = self.heap[parent];
            if a <= activity[pv.index()] {
                break;
            }
            self.heap[i] = pv;
            self.positions[pv.index()] = i;
            i = parent;
        }
        self.heap[i] = v;
        self.positions[v.index()] = i;
    }

    /// Moves the variable at `i` down to its place, hole-based like
    /// [`VarHeap::sift_up`]: the larger child wins, the left one on a
    /// tie, and `v` stays put unless a child is strictly larger.
    fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
        let v = self.heap[i];
        let a = activity[v.index()];
        let n = self.heap.len();
        loop {
            let l = 2 * i + 1;
            if l >= n {
                break;
            }
            let r = l + 1;
            let (mut child, mut best) = (i, a);
            let la = activity[self.heap[l].index()];
            if la > best {
                (child, best) = (l, la);
            }
            if r < n && activity[self.heap[r].index()] > best {
                child = r;
            }
            if child == i {
                break;
            }
            let cv = self.heap[child];
            self.heap[i] = cv;
            self.positions[cv.index()] = i;
            i = child;
        }
        self.heap[i] = v;
        self.positions[v.index()] = i;
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    /// A swap-based heap: the oracle whose pop order `VarHeap` must
    /// match exactly, ties included, because the solver's branching
    /// order is that pop order.
    #[derive(Default)]
    struct SwapHeap {
        heap: Vec<Var>,
        positions: Vec<usize>,
    }

    impl SwapHeap {
        fn contains(&self, v: Var) -> bool {
            self.positions.get(v.index()).is_some_and(|&p| p != ABSENT)
        }

        fn insert(&mut self, v: Var, activity: &[f64]) {
            if self.positions.len() <= v.index() {
                self.positions.resize(v.index() + 1, ABSENT);
            }
            if self.contains(v) {
                return;
            }
            self.positions[v.index()] = self.heap.len();
            self.heap.push(v);
            self.sift_up(self.heap.len() - 1, activity);
        }

        fn pop(&mut self, activity: &[f64]) -> Option<Var> {
            if self.heap.is_empty() {
                return None;
            }
            let top = self.heap[0];
            let last = self.heap.pop().expect("non-empty");
            self.positions[top.index()] = ABSENT;
            if !self.heap.is_empty() {
                self.heap[0] = last;
                self.positions[last.index()] = 0;
                self.sift_down(0, activity);
            }
            Some(top)
        }

        fn update(&mut self, v: Var, activity: &[f64]) {
            if let Some(&p) = self.positions.get(v.index()) {
                if p != ABSENT {
                    self.sift_up(p, activity);
                }
            }
        }

        fn sift_up(&mut self, mut i: usize, activity: &[f64]) {
            while i > 0 {
                let parent = (i - 1) / 2;
                if activity[self.heap[i].index()] <= activity[self.heap[parent].index()] {
                    break;
                }
                self.swap(i, parent);
                i = parent;
            }
        }

        fn sift_down(&mut self, mut i: usize, activity: &[f64]) {
            loop {
                let l = 2 * i + 1;
                let r = 2 * i + 2;
                let mut best = i;
                if l < self.heap.len()
                    && activity[self.heap[l].index()] > activity[self.heap[best].index()]
                {
                    best = l;
                }
                if r < self.heap.len()
                    && activity[self.heap[r].index()] > activity[self.heap[best].index()]
                {
                    best = r;
                }
                if best == i {
                    break;
                }
                self.swap(i, best);
                i = best;
            }
        }

        fn swap(&mut self, a: usize, b: usize) {
            self.heap.swap(a, b);
            self.positions[self.heap[a].index()] = a;
            self.positions[self.heap[b].index()] = b;
        }
    }

    fn heap_of(n: usize) -> VarHeap {
        let mut h = VarHeap::new();
        h.grow(n);
        h
    }

    #[test]
    fn pops_in_activity_order() {
        let activity = vec![1.0, 5.0, 3.0, 4.0, 2.0];
        let mut h = heap_of(5);
        for i in 0..5 {
            h.insert(Var(i), &activity);
        }
        let order: Vec<u32> = std::iter::from_fn(|| h.pop(&activity)).map(|v| v.0).collect();
        assert_eq!(order, vec![1, 3, 2, 4, 0]);
    }

    #[test]
    fn update_after_bump() {
        let mut activity = vec![1.0, 2.0, 3.0];
        let mut h = heap_of(3);
        for i in 0..3 {
            h.insert(Var(i), &activity);
        }
        activity[0] = 10.0;
        h.update(Var(0), &activity);
        assert_eq!(h.pop(&activity), Some(Var(0)));
    }

    #[test]
    fn insert_is_idempotent() {
        let activity = vec![1.0];
        let mut h = heap_of(1);
        h.insert(Var(0), &activity);
        h.insert(Var(0), &activity);
        assert_eq!(h.len(), 1);
    }

    mod properties {
        use super::*;
        use proptest::prelude::*;

        /// One randomized workload step: insert a variable, pop the
        /// maximum, or bump a variable's activity (increase-key, the
        /// only direction VSIDS ever moves between rescales — rescaling
        /// scales all activities uniformly and preserves order).
        #[derive(Clone, Debug)]
        enum Step {
            Insert(u32),
            Pop,
            Bump(u32, u32),
        }

        fn step() -> impl Strategy<Value = Step> {
            prop_oneof![
                (0u32..12).prop_map(Step::Insert),
                Just(Step::Pop),
                (0u32..12, 1u32..1000).prop_map(|(v, by)| Step::Bump(v, by)),
            ]
        }

        /// Bumps drawn from a handful of sizes, so activities collide
        /// often and every tie-break of the sifts is exercised.
        fn tied_step() -> impl Strategy<Value = Step> {
            prop_oneof![
                (0u32..16).prop_map(Step::Insert),
                Just(Step::Pop),
                (0u32..16, 1u32..3).prop_map(|(v, by)| Step::Bump(v, by)),
            ]
        }

        proptest! {
            #![proptest_config(ProptestConfig::with_cases(256))]

            /// Against a naive reference model: after any workload of
            /// inserts, pops, and increase-key bumps, every pop returns
            /// exactly the queued variable of maximal activity, and
            /// membership matches the model throughout.
            #[test]
            fn matches_reference_model(
                seed in proptest::collection::vec(0u32..12, 0..6),
                steps in proptest::collection::vec(step(), 1..40),
            ) {
                let mut activity = vec![0.0f64; 12];
                for (i, a) in activity.iter_mut().enumerate() {
                    *a = i as f64;
                }
                let mut h = heap_of(12);
                let mut model: Vec<u32> = Vec::new();
                for v in seed {
                    h.insert(Var(v), &activity);
                    if !model.contains(&v) {
                        model.push(v);
                    }
                }
                for s in steps {
                    match s {
                        Step::Insert(v) => {
                            h.insert(Var(v), &activity);
                            if !model.contains(&v) {
                                model.push(v);
                            }
                        }
                        Step::Pop => match h.pop(&activity) {
                            None => prop_assert!(model.is_empty()),
                            Some(v) => {
                                // Any queued variable of maximal
                                // activity is a correct answer (bumps
                                // can create ties).
                                prop_assert!(model.contains(&v.0));
                                let max = model
                                    .iter()
                                    .map(|&m| activity[m as usize])
                                    .fold(f64::NEG_INFINITY, f64::max);
                                prop_assert_eq!(activity[v.index()], max);
                                model.retain(|&m| m != v.0);
                            }
                        },
                        Step::Bump(v, by) => {
                            // Increase-key only.
                            activity[v as usize] += by as f64;
                            h.update(Var(v), &activity);
                        }
                    }
                    for v in 0..12u32 {
                        prop_assert_eq!(h.contains(Var(v)), model.contains(&v));
                    }
                }
                // Drain: the heap empties in non-increasing activity
                // order.
                let mut last = f64::INFINITY;
                while let Some(v) = h.pop(&activity) {
                    prop_assert!(activity[v.index()] <= last);
                    last = activity[v.index()];
                    model.retain(|&m| m != v.0);
                }
                prop_assert!(model.is_empty());
                prop_assert!(h.is_empty());
            }

            /// Against the swap-based oracle, with many equal
            /// activities: the same pop sequence, ties included, and the
            /// same membership after every step. This is what keeps the
            /// solver's branching order, and so its whole search,
            /// unchanged.
            #[test]
            fn matches_swap_based_heap_exactly(
                seed in proptest::collection::vec(0u32..16, 0..16),
                steps in proptest::collection::vec(tied_step(), 1..80),
            ) {
                let mut activity = vec![0.0f64; 16];
                let mut h = heap_of(16);
                let mut oracle = SwapHeap::default();
                for v in seed {
                    h.insert(Var(v), &activity);
                    oracle.insert(Var(v), &activity);
                }
                for s in steps {
                    match s {
                        Step::Insert(v) => {
                            h.insert(Var(v), &activity);
                            oracle.insert(Var(v), &activity);
                        }
                        Step::Pop => {
                            prop_assert_eq!(h.pop(&activity), oracle.pop(&activity));
                        }
                        Step::Bump(v, by) => {
                            activity[v as usize] += by as f64;
                            h.update(Var(v), &activity);
                            oracle.update(Var(v), &activity);
                        }
                    }
                    for v in 0..16u32 {
                        prop_assert_eq!(h.contains(Var(v)), oracle.contains(Var(v)));
                    }
                    prop_assert_eq!(&h.heap, &oracle.heap);
                }
                loop {
                    let (a, b) = (h.pop(&activity), oracle.pop(&activity));
                    prop_assert_eq!(a, b);
                    if a.is_none() {
                        break;
                    }
                }
            }
        }
    }
}
