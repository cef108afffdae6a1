//! Fill-reducing orderings for sparse LU factorization.
//!
//! The paper's argument hinges on the fill-in of LU factors: factorizing the
//! conductance matrix `G` produces far fewer nonzeros than factorizing the
//! coupled capacitance matrix `C` or the backward-Euler matrix `C/h + G`
//! (Fig. 1). To make that comparison meaningful we apply the same
//! fill-reducing ordering to every factorization. Two are provided: reverse
//! Cuthill–McKee (bandwidth reduction) and the default, an approximate
//! minimum degree ordering of the kind KLU-class circuit solvers use.
//!
//! # The minimum-degree ordering
//!
//! [`OrderingMethod::MinDegree`] follows Amestoy, Davis & Duff (SIMAX 1996).
//! Elimination runs on a *quotient graph*: an eliminated pivot stays behind
//! as an *element* whose list is the clique it created, so fill is never
//! written out edge by edge. Elements adjacent to a pivot are absorbed into
//! the new one, an element with no variable outside the new one is absorbed
//! too (aggressive absorption), variables left with identical adjacency are
//! merged into one *supervariable*, and a variable adjacent to nothing but
//! the new element is eliminated along with the pivot (mass elimination).
//! Everything lives in one integer workspace of `1.2·nnz(A + Aᵀ) + n` entries
//! that is compacted in place when it fills up, plus a fixed number of
//! `n`-vectors; there is no per-node container.
//!
//! What is approximate is the degree. The external degree of a variable `i`
//! after pivot `p` is bounded, not computed: by the number of remaining
//! variables, by its previous bound plus `|L_p \ i|`, and by
//! `|A_i \ i| + |L_p \ i| + Σ_e |L_e \ L_p|` over the elements `e` adjacent
//! to `i`, where one pass over the pivot's clique yields every `|L_e \ L_p|`.
//! The bound is exact when `i` is adjacent to at most two elements. Nodes of
//! degree above `10·√n` (a supply net wired to every cell) are set aside and
//! ordered last, so one hub cannot make the ordering quadratic.
//!
//! Degree ties are broken **oldest-touched-first**: each degree bucket is a
//! FIFO queue, filled in index order at the start; a variable whose degree is
//! recomputed re-enters at the tail and the pivot is taken from the head of
//! the lowest non-empty bucket. On a deck of many independent nets (the
//! uncoupled lines of Table I's tc2) a lowest-index-first or most-recent-first
//! rule walks one line end to end before it starts the next, which makes each
//! entry of `L` depend on the entry computed just before it and turns both
//! triangular sweeps into a single latency-bound dependency chain (measured
//! 4.9 µs against 3.0 µs per solve at identical fill). The FIFO rule
//! eliminates one node of every line per round, the way RCM's BFS levels do,
//! and keeps dependent entries a round apart.
//!
//! For the same reason the result is **not** postordered along the
//! elimination tree, as AMD implementations conventionally do: a postorder
//! makes every subtree contiguous, which for independent chains is exactly
//! the end-to-end walk the FIFO rule avoids. Pivots are numbered in the order
//! they are eliminated; a supervariable's members and mass-eliminated
//! variables follow their pivot.

use crate::csr::CsrMatrix;
use crate::permutation::Permutation;

/// Fill-reducing ordering strategy applied before LU factorization.
#[derive(Debug, Clone, Copy, PartialEq, Eq, PartialOrd, Ord, Hash, Default)]
pub enum OrderingMethod {
    /// Keep the natural (netlist) ordering.
    Natural,
    /// Reverse Cuthill–McKee bandwidth-reducing ordering.
    Rcm,
    /// Approximate minimum-degree ordering on the symmetrized pattern.
    #[default]
    MinDegree,
}

/// Computes a fill-reducing column ordering for `a` using `method`.
///
/// The pattern of `a + aᵀ` (without the diagonal) is used, so unsymmetric
/// matrices such as MNA conductance matrices are handled. The result depends
/// on the pattern only, never on the values.
///
/// # Examples
///
/// ```
/// use exi_sparse::{CsrMatrix, TripletMatrix, ordering::{compute_ordering, OrderingMethod}};
///
/// let mut t = TripletMatrix::new(3, 3);
/// t.push(0, 0, 1.0);
/// t.push(0, 2, 1.0);
/// t.push(2, 0, 1.0);
/// t.push(1, 1, 1.0);
/// t.push(2, 2, 1.0);
/// let a = t.to_csr();
/// let p = compute_ordering(&a, OrderingMethod::Rcm);
/// assert_eq!(p.len(), 3);
/// ```
pub fn compute_ordering(a: &CsrMatrix, method: OrderingMethod) -> Permutation {
    let order = match method {
        OrderingMethod::Natural => return Permutation::identity(a.rows()),
        OrderingMethod::Rcm => reverse_cuthill_mckee(&SymmetricPattern::of(a)),
        OrderingMethod::MinDegree => {
            let pattern = SymmetricPattern::of(a);
            let slack = pattern.idx.len() / 5 + pattern.len();
            minimum_degree(pattern, slack)
        }
    };
    Permutation::from_order(&order).expect("an ordering visits every node exactly once")
}

/// "No node": the end of a list, or a dead object's list pointer.
const NONE: usize = usize::MAX;

/// The pattern of `a + aᵀ` without the diagonal in compressed form: node
/// `i`'s neighbours are `idx[ptr[i]..ptr[i + 1]]`, ascending and unique.
struct SymmetricPattern {
    ptr: Vec<usize>,
    idx: Vec<usize>,
}

impl SymmetricPattern {
    fn of(a: &CsrMatrix) -> Self {
        let n = a.rows();
        let off_diagonal = |i: usize| {
            let (cols, _) = a.row(i);
            cols.iter().copied().filter(move |&j| j != i && j < n)
        };
        // Pattern of the transpose; filling it row by row leaves every list
        // ascending.
        let mut t_ptr = vec![0usize; n + 1];
        for i in 0..n {
            for j in off_diagonal(i) {
                t_ptr[j + 1] += 1;
            }
        }
        for j in 0..n {
            t_ptr[j + 1] += t_ptr[j];
        }
        let mut t_idx = vec![0usize; t_ptr[n]];
        let mut fill = t_ptr[..n].to_vec();
        for i in 0..n {
            for j in off_diagonal(i) {
                t_idx[fill[j]] = i;
                fill[j] += 1;
            }
        }
        // Row i of the result is the merge of row i of `a` and of `aᵀ`.
        let mut ptr = Vec::with_capacity(n + 1);
        let mut idx = Vec::with_capacity(2 * t_idx.len());
        ptr.push(0);
        for i in 0..n {
            let mut transposed = t_idx[t_ptr[i]..t_ptr[i + 1]].iter().copied().peekable();
            for j in off_diagonal(i) {
                while let Some(t) = transposed.next_if(|&t| t < j) {
                    idx.push(t);
                }
                transposed.next_if_eq(&j);
                idx.push(j);
            }
            idx.extend(transposed);
            ptr.push(idx.len());
        }
        SymmetricPattern { ptr, idx }
    }

    fn len(&self) -> usize {
        self.ptr.len() - 1
    }

    fn row(&self, i: usize) -> &[usize] {
        &self.idx[self.ptr[i]..self.ptr[i + 1]]
    }

    fn degree(&self, i: usize) -> usize {
        self.ptr[i + 1] - self.ptr[i]
    }
}

/// Reverse Cuthill–McKee ordering of a symmetric pattern.
fn reverse_cuthill_mckee(adj: &SymmetricPattern) -> Vec<usize> {
    let n = adj.len();
    let mut order = Vec::with_capacity(n);
    let mut visited = vec![false; n];
    let mut search = FarthestSearch {
        level: vec![0; n],
        base: 0,
        queue: Vec::new(),
    };
    // Process every connected component, starting each from a low-degree node.
    let mut nodes_by_degree: Vec<usize> = (0..n).collect();
    nodes_by_degree.sort_by_key(|&i| adj.degree(i));
    for &start in &nodes_by_degree {
        if visited[start] {
            continue;
        }
        let root = search.pseudo_peripheral(adj, start);
        // The component's nodes are appended to `order` in BFS order, so the
        // tail of `order` is the BFS queue.
        let mut head = order.len();
        visited[root] = true;
        order.push(root);
        while head < order.len() {
            let u = order[head];
            head += 1;
            let mut nbrs: Vec<usize> = adj
                .row(u)
                .iter()
                .copied()
                .filter(|&v| !visited[v])
                .collect();
            nbrs.sort_by_key(|&v| adj.degree(v));
            for v in nbrs {
                visited[v] = true;
                order.push(v);
            }
        }
    }
    order.reverse();
    order
}

/// Breadth-first search for the node farthest from a start node, with the
/// buffers every search of one ordering shares.
struct FarthestSearch {
    /// `level[v] - base - 1` is `v`'s distance in the current search if
    /// `level[v] > base`; anything else is left over from an earlier search
    /// (`base` moves past every level a search can assign), so a search costs
    /// its component, not `n`.
    level: Vec<usize>,
    base: usize,
    queue: Vec<usize>,
}

impl FarthestSearch {
    /// Finds a pseudo-peripheral node of the component containing `start` by
    /// repeated BFS to the farthest lowest-degree node.
    fn pseudo_peripheral(&mut self, adj: &SymmetricPattern, start: usize) -> usize {
        let mut current = start;
        let mut last_ecc = 0usize;
        for _ in 0..4 {
            let (node, ecc) = self.farthest(adj, current);
            if ecc <= last_ecc {
                break;
            }
            last_ecc = ecc;
            current = node;
        }
        current
    }

    /// The node farthest from `start` (ties broken by smaller degree) and its
    /// distance. A component not yet ordered contains no ordered node, so the
    /// search needs no `visited` test.
    fn farthest(&mut self, adj: &SymmetricPattern, start: usize) -> (usize, usize) {
        let base = self.base;
        self.base += adj.len() + 1;
        self.queue.clear();
        self.level[start] = base + 1;
        self.queue.push(start);
        let mut best = (start, 0usize);
        let mut head = 0;
        while head < self.queue.len() {
            let u = self.queue[head];
            head += 1;
            for &v in adj.row(u) {
                if self.level[v] > base {
                    continue;
                }
                self.level[v] = self.level[u] + 1;
                self.queue.push(v);
                let dist = self.level[v] - base - 1;
                if dist > best.1 || (dist == best.1 && adj.degree(v) < adj.degree(best.0)) {
                    best = (v, dist);
                }
            }
        }
        best
    }
}

/// FIFO degree buckets: `head[d]`/`tail[d]` delimit a doubly linked list of
/// the variables of degree `d`, threaded through `next`/`prev`. A variable
/// that is off the lists lends its two links to the supervariable hash
/// chains.
struct DegreeBuckets {
    head: Vec<usize>,
    tail: Vec<usize>,
    next: Vec<usize>,
    prev: Vec<usize>,
}

impl DegreeBuckets {
    fn new(n: usize) -> Self {
        DegreeBuckets {
            head: vec![NONE; n],
            tail: vec![NONE; n],
            next: vec![NONE; n],
            prev: vec![NONE; n],
        }
    }

    fn push_back(&mut self, i: usize, degree: usize) {
        let last = std::mem::replace(&mut self.tail[degree], i);
        self.prev[i] = last;
        self.next[i] = NONE;
        match last {
            NONE => self.head[degree] = i,
            _ => self.next[last] = i,
        }
    }

    fn remove(&mut self, i: usize, degree: usize) {
        let (before, after) = (self.prev[i], self.next[i]);
        match before {
            NONE => self.head[degree] = after,
            _ => self.next[before] = after,
        }
        match after {
            NONE => self.tail[degree] = before,
            _ => self.prev[after] = before,
        }
    }
}

/// Appends supervariable `i` — its principal node and every node merged into
/// it — to the elimination order.
fn emit(order: &mut Vec<usize>, member_next: &[usize], i: usize) {
    let mut k = i;
    while k != NONE {
        order.push(k);
        k = member_next[k];
    }
}

/// Moves every live list (`pe[j] != NONE`) of `iw[..end]` to the front of
/// `iw`, keeping their order, and returns the first free position.
fn compress(iw: &mut [usize], pe: &mut [usize], len: &[usize], end: usize) -> usize {
    let n = pe.len();
    // Mark the head of every live list with its owner (entries are node
    // indices, so anything >= n is a mark); the displaced entry waits in `pe`.
    for j in 0..n {
        if pe[j] != NONE {
            pe[j] = std::mem::replace(&mut iw[pe[j]], n + j);
        }
    }
    let (mut src, mut dst) = (0, 0);
    while src < end {
        let entry = iw[src];
        src += 1;
        if entry >= n {
            let j = entry - n;
            iw[dst] = pe[j];
            pe[j] = dst;
            iw.copy_within(src..src + len[j] - 1, dst + 1);
            src += len[j] - 1;
            dst += len[j];
        }
    }
    dst
}

/// Approximate minimum degree ordering of a symmetric pattern (see the module
/// documentation). `slack` is the workspace kept free beyond the pattern
/// itself, at least `n`; it decides how often the workspace is compacted and
/// nothing else.
fn minimum_degree(pattern: SymmetricPattern, slack: usize) -> Vec<usize> {
    let n = pattern.len();
    let SymmetricPattern { ptr, idx: mut iw } = pattern;
    // Quotient graph. A live variable's list holds `elen` elements, then
    // variables; a live element's list holds the variables of its clique.
    let mut len: Vec<usize> = ptr.windows(2).map(|w| w[1] - w[0]).collect();
    let mut pe = ptr;
    pe.truncate(n);
    let mut pfree = iw.len();
    iw.resize(pfree + slack.max(n), 0);
    let mut elen = vec![0usize; n];
    // Supervariable size; 0 once a node is no longer a principal variable.
    let mut nv = vec![1usize; n];
    // Variables: bound on the external degree. Elements: clique size.
    let mut degree = len.clone();
    // Elements: `w[e] - wflg` is `|L_e \ L_me|` once the pivot's scan has
    // reached `e`, and 0 marks an absorbed element. All nodes: scratch marks
    // of the supervariable comparison. `wflg` outgrows every stale value.
    let mut w = vec![1usize; n];
    let (mut wflg, mut lemax) = (2usize, 0usize);
    // `in_lme[i] == pivot number` while `i` belongs to the clique being built.
    let mut in_lme = vec![0usize; n];
    let mut buckets = DegreeBuckets::new(n);
    let mut hash_head = vec![NONE; n];
    // A supervariable's merged nodes, chained behind its principal node.
    let mut member_next = vec![NONE; n];
    let mut member_tail: Vec<usize> = (0..n).collect();

    let mut order = Vec::with_capacity(n);
    let dense = (10 * n.isqrt()).max(16);
    let mut dense_nodes = Vec::new();
    for i in 0..n {
        let set_aside = match degree[i] {
            0 => &mut order,
            d if d > dense => &mut dense_nodes,
            d => {
                buckets.push_back(i, d);
                continue;
            }
        };
        set_aside.push(i);
        (nv[i], pe[i]) = (0, NONE);
    }
    let mut eliminated = order.len() + dense_nodes.len();

    let mut mindeg = 0;
    let mut pivot_no = 0;
    while eliminated < n {
        while buckets.head[mindeg] == NONE {
            mindeg += 1;
        }
        let me = buckets.head[mindeg];
        buckets.remove(me, mindeg);
        let elenme = elen[me];
        let mut nvpiv = std::mem::take(&mut nv[me]);
        eliminated += nvpiv;
        pivot_no += 1;
        emit(&mut order, &member_next, me);

        // Form the new element's clique L_me: the variables of me's own list
        // and of every adjacent element, which me absorbs.
        let mut degme = 0;
        let mut pme1;
        let pme_end;
        if elenme == 0 {
            // No adjacent element: L_me overwrites me's variable list.
            pme1 = pe[me];
            let mut dst = pme1;
            for p in pme1..pme1 + len[me] {
                let i = iw[p];
                if nv[i] > 0 {
                    degme += nv[i];
                    in_lme[i] = pivot_no;
                    iw[dst] = i;
                    dst += 1;
                    buckets.remove(i, degree[i]);
                }
            }
            pme_end = dst;
        } else {
            pme1 = pfree;
            let mut p = pe[me];
            let own_variables = len[me] - elenme;
            for k in 0..=elenme {
                let (e, mut pj, ln) = if k < elenme {
                    let e = iw[p];
                    p += 1;
                    (e, pe[e], len[e])
                } else {
                    (me, p, own_variables)
                };
                for scanned in 1..=ln {
                    let i = iw[pj];
                    pj += 1;
                    if nv[i] == 0 || in_lme[i] == pivot_no {
                        continue;
                    }
                    if pfree == iw.len() {
                        // Out of room: shrink the lists being read to what is
                        // still unread, compact, and move the partial clique
                        // behind the survivors.
                        (pe[me], len[me]) = (p, elenme - (k + 1).min(elenme) + own_variables);
                        (pe[e], len[e]) = (pj, ln - scanned);
                        for list in [me, e] {
                            if len[list] == 0 {
                                pe[list] = NONE;
                            }
                        }
                        let dst = compress(&mut iw, &mut pe, &len, pme1);
                        iw.copy_within(pme1..pfree, dst);
                        pfree = dst + (pfree - pme1);
                        pme1 = dst;
                        (p, pj) = (pe[me], pe[e]);
                    }
                    degme += nv[i];
                    in_lme[i] = pivot_no;
                    iw[pfree] = i;
                    pfree += 1;
                    buckets.remove(i, degree[i]);
                }
                if e != me {
                    (pe[e], w[e]) = (NONE, 0);
                }
            }
            pme_end = pfree;
        }
        pe[me] = pme1;
        len[me] = pme_end - pme1;

        // One pass over L_me leaves w[e] - wflg = |L_e \ L_me| for every
        // element e adjacent to a variable of L_me.
        for &i in &iw[pme1..pme_end] {
            let nvi = nv[i];
            for &e in &iw[pe[i]..pe[i] + elen[i]] {
                if w[e] >= wflg {
                    w[e] -= nvi;
                } else if w[e] != 0 {
                    w[e] = degree[e] + wflg - nvi;
                }
            }
        }

        // Degree update: prune each variable's list, bound its degree, and put
        // it in a hash bucket keyed by what is left of the list.
        for pme in pme1..pme_end {
            let i = iw[pme];
            let p1 = pe[i];
            let p2 = p1 + elen[i];
            let p4 = p1 + len[i];
            let (mut pn, mut hash, mut deg) = (p1, 0usize, 0usize);
            for p in p1..p2 {
                let e = iw[p];
                if w[e] > wflg {
                    deg += w[e] - wflg;
                    iw[pn] = e;
                    pn += 1;
                    hash += e;
                } else if w[e] != 0 {
                    // Every variable of e is in L_me: me absorbs e.
                    (pe[e], w[e]) = (NONE, 0);
                }
            }
            let p3 = pn;
            for p in p2..p4 {
                let j = iw[p];
                if nv[j] > 0 && in_lme[j] != pivot_no {
                    deg += nv[j];
                    iw[pn] = j;
                    pn += 1;
                    hash += j;
                }
            }
            if p3 == p1 && pn == p3 {
                // Adjacent to nothing but me: eliminated with it.
                let nvi = std::mem::take(&mut nv[i]);
                pe[i] = NONE;
                degme -= nvi;
                nvpiv += nvi;
                eliminated += nvi;
                emit(&mut order, &member_next, i);
            } else {
                degree[i] = degree[i].min(deg);
                // me becomes the first element of the list; the entries it
                // displaces move to the end of their sections. At least one
                // entry was pruned (me itself or an absorbed element), so the
                // list still fits its slot.
                iw[pn] = iw[p3];
                iw[p3] = iw[p1];
                iw[p1] = me;
                elen[i] = p3 - p1 + 1;
                len[i] = pn - p1 + 1;
                let hash = hash % n;
                buckets.next[i] = std::mem::replace(&mut hash_head[hash], i);
                buckets.prev[i] = hash;
            }
        }
        degree[me] = degme;
        lemax = lemax.max(degme);
        wflg += lemax;

        // Supervariable detection: variables of one hash bucket with the same
        // list (after me, which they all share) are indistinguishable.
        for pme in pme1..pme_end {
            let i = iw[pme];
            if nv[i] == 0 {
                continue;
            }
            let mut i = std::mem::replace(&mut hash_head[buckets.prev[i]], NONE);
            while i != NONE && buckets.next[i] != NONE {
                let (ln, eln) = (len[i], elen[i]);
                for &x in &iw[pe[i] + 1..pe[i] + ln] {
                    w[x] = wflg;
                }
                let mut jlast = i;
                let mut j = buckets.next[i];
                while j != NONE {
                    let same = len[j] == ln
                        && elen[j] == eln
                        && iw[pe[j] + 1..pe[j] + ln].iter().all(|&x| w[x] == wflg);
                    if same {
                        nv[i] += std::mem::take(&mut nv[j]);
                        pe[j] = NONE;
                        member_next[member_tail[i]] = j;
                        member_tail[i] = member_tail[j];
                        j = buckets.next[j];
                        buckets.next[jlast] = j;
                    } else {
                        jlast = j;
                        j = buckets.next[j];
                    }
                }
                wflg += 1;
                i = buckets.next[i];
            }
        }

        // The survivors of L_me re-enter the degree buckets at the tail.
        let nleft = n - eliminated;
        let mut p = pme1;
        for pme in pme1..pme_end {
            let i = iw[pme];
            let nvi = nv[i];
            if nvi > 0 {
                let deg = (degree[i] + degme - nvi).min(nleft - nvi);
                degree[i] = deg;
                buckets.push_back(i, deg);
                mindeg = mindeg.min(deg);
                iw[p] = i;
                p += 1;
            }
        }
        len[me] = p - pme1;
        if len[me] == 0 {
            (pe[me], w[me]) = (NONE, 0);
        }
        if elenme != 0 {
            pfree = p;
        }
    }
    order.extend(dense_nodes);
    order
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::{LuOptions, SparseLu, TripletMatrix};
    use exi_netlist::generators::{
        coupled_lines, power_grid, rc_ladder, rc_mesh, CoupledLinesSpec, PowerGridSpec,
        RcLadderSpec, RcMeshSpec,
    };

    /// Greedy minimum degree with exact degrees and explicit fill (clique)
    /// updates, lowest index first among ties: the textbook algorithm, the
    /// ordering `MinDegree` used to be and the yardstick its fill is held to.
    fn exact_minimum_degree(adj: &SymmetricPattern) -> Vec<usize> {
        let n = adj.len();
        let mut neighbors: Vec<std::collections::BTreeSet<usize>> = (0..n)
            .map(|i| adj.row(i).iter().copied().collect())
            .collect();
        let mut eliminated = vec![false; n];
        let mut order = Vec::with_capacity(n);
        for _ in 0..n {
            // Pick the remaining node with the fewest remaining neighbors.
            let mut best = usize::MAX;
            let mut best_deg = usize::MAX;
            for v in 0..n {
                if !eliminated[v] && neighbors[v].len() < best_deg {
                    best = v;
                    best_deg = neighbors[v].len();
                }
            }
            let v = best;
            eliminated[v] = true;
            order.push(v);
            // Form the elimination clique among v's remaining neighbors.
            let nbrs: Vec<usize> = neighbors[v]
                .iter()
                .copied()
                .filter(|&u| !eliminated[u])
                .collect();
            for (idx, &a) in nbrs.iter().enumerate() {
                neighbors[a].remove(&v);
                for &b in nbrs.iter().skip(idx + 1) {
                    neighbors[a].insert(b);
                    neighbors[b].insert(a);
                }
            }
            neighbors[v].clear();
        }
        order
    }

    /// `(G, C)` of a generator circuit at the zero state, rebuilt entry by
    /// entry: exi-netlist links the non-test build of this crate, whose
    /// `CsrMatrix` is a different type here.
    fn matrices(ckt: &exi_netlist::Circuit) -> (CsrMatrix, CsrMatrix) {
        let n = ckt.num_unknowns();
        let eval = ckt.compile_plan().unwrap().evaluate(&vec![0.0; n]).unwrap();
        (
            from_entries(n, eval.g.iter()),
            from_entries(n, eval.c.iter()),
        )
    }

    fn from_entries(n: usize, entries: impl Iterator<Item = (usize, usize, f64)>) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for (i, j, v) in entries {
            t.push(i, j, v);
        }
        t.to_csr()
    }

    /// `nnz(L) + nnz(U)` of `a` factorized under `ordering`.
    fn fill(a: &CsrMatrix, ordering: OrderingMethod) -> usize {
        let options = LuOptions {
            ordering,
            ..LuOptions::default()
        };
        let lu = SparseLu::factorize_with(a, &options).expect("factorizes");
        lu.nnz_l() + lu.nnz_u()
    }

    /// `k` disjoint paths of `length` nodes, numbered path by path; a
    /// `grounded` path ends in a triangle, which leaves it one free end.
    fn disjoint_paths(k: usize, length: usize, grounded: bool) -> CsrMatrix {
        let stride = length + if grounded { 2 } else { 0 };
        let mut t = TripletMatrix::new(k * stride, k * stride);
        let mut edge = |a: usize, b: usize| {
            t.push(a, b, -1.0);
            t.push(b, a, -1.0);
        };
        for path in 0..k {
            let first = path * stride;
            for i in first..first + length - 1 {
                edge(i, i + 1);
            }
            if grounded {
                let last = first + length - 1;
                edge(last, last + 1);
                edge(last, last + 2);
                edge(last + 1, last + 2);
            }
        }
        for i in 0..k * stride {
            t.push(i, i, 4.0);
        }
        t.to_csr()
    }

    /// A path graph 0-1-2-3-4 as a tridiagonal matrix.
    fn path_matrix(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 2.0);
            if i + 1 < n {
                t.push(i, i + 1, -1.0);
                t.push(i + 1, i, -1.0);
            }
        }
        t.to_csr()
    }

    /// Star graph: node 0 connected to all others.
    fn star_matrix(n: usize) -> CsrMatrix {
        let mut t = TripletMatrix::new(n, n);
        for i in 0..n {
            t.push(i, i, 1.0);
        }
        for i in 1..n {
            t.push(0, i, -1.0);
            t.push(i, 0, -1.0);
        }
        t.to_csr()
    }

    fn is_permutation(p: &Permutation, n: usize) {
        assert_eq!(p.len(), n);
        let mut seen = vec![false; n];
        for k in 0..n {
            let i = p.unmap(k);
            assert!(!seen[i]);
            seen[i] = true;
        }
    }

    #[test]
    fn natural_is_identity() {
        let a = path_matrix(5);
        let p = compute_ordering(&a, OrderingMethod::Natural);
        for i in 0..5 {
            assert_eq!(p.map(i), i);
        }
    }

    #[test]
    fn rcm_returns_valid_permutation() {
        for n in [1usize, 2, 5, 17] {
            let a = path_matrix(n);
            let p = compute_ordering(&a, OrderingMethod::Rcm);
            is_permutation(&p, n);
        }
    }

    #[test]
    fn min_degree_orders_star_center_last() {
        // In a star graph the hub has the largest degree, so minimum degree
        // eliminates leaves before the hub; once only the hub and one leaf
        // remain their degrees tie, so the hub lands in one of the last two
        // positions.
        let a = star_matrix(6);
        let p = compute_ordering(&a, OrderingMethod::MinDegree);
        is_permutation(&p, 6);
        assert!(
            p.map(0) >= 4,
            "hub should be eliminated near the end, got {}",
            p.map(0)
        );
    }

    #[test]
    fn rcm_handles_disconnected_components() {
        // Two disjoint 2-node components.
        let mut t = TripletMatrix::new(4, 4);
        t.push(0, 1, 1.0);
        t.push(1, 0, 1.0);
        t.push(2, 3, 1.0);
        t.push(3, 2, 1.0);
        for i in 0..4 {
            t.push(i, i, 1.0);
        }
        let p = compute_ordering(&t.to_csr(), OrderingMethod::Rcm);
        is_permutation(&p, 4);
    }

    #[test]
    fn orderings_on_empty_and_diagonal_matrices() {
        let empty = CsrMatrix::zeros(0, 0);
        assert_eq!(compute_ordering(&empty, OrderingMethod::Rcm).len(), 0);
        let diag = CsrMatrix::identity(3);
        let p = compute_ordering(&diag, OrderingMethod::MinDegree);
        is_permutation(&p, 3);
    }

    #[test]
    fn min_degree_orders_degenerate_patterns() {
        let one = CsrMatrix::identity(1);
        assert_eq!(
            compute_ordering(&one, OrderingMethod::MinDegree).order(),
            [0]
        );
        assert_eq!(
            compute_ordering(&CsrMatrix::zeros(0, 0), OrderingMethod::MinDegree).len(),
            0
        );
        // Diagonal-only: nothing to choose, index order.
        let diag = CsrMatrix::identity(7);
        let p = compute_ordering(&diag, OrderingMethod::MinDegree);
        assert_eq!(p.order(), [0, 1, 2, 3, 4, 5, 6]);
        // Strictly upper triangular entries only: the pattern is symmetrized.
        let upper = from_entries(5, (0..4).map(|i| (i, i + 1, 1.0)));
        let lower = from_entries(5, (0..4).map(|i| (i + 1, i, 1.0)));
        let p = compute_ordering(&upper, OrderingMethod::MinDegree);
        is_permutation(&p, 5);
        assert_eq!(p, compute_ordering(&lower, OrderingMethod::MinDegree));
        assert_eq!(
            p,
            compute_ordering(&path_matrix(5), OrderingMethod::MinDegree)
        );
        // Disconnected components of different shapes plus isolated nodes.
        let mut t = TripletMatrix::new(12, 12);
        for (a, b) in [(0, 1), (1, 2), (2, 0), (4, 5), (5, 6), (6, 7), (9, 10)] {
            t.push(a, b, 1.0);
            t.push(b, a, 1.0);
        }
        is_permutation(
            &compute_ordering(&t.to_csr(), OrderingMethod::MinDegree),
            12,
        );
    }

    #[test]
    fn min_degree_sets_a_supply_hub_aside() {
        // A hub wired to every node of a 20 x 20 grid, like a supply net, is
        // ordered last whatever its index.
        let (rows, cols) = (20, 20);
        let n = rows * cols + 1;
        let hub = 7;
        let node = |r: usize, c: usize| {
            let i = r * cols + c;
            i + usize::from(i >= hub)
        };
        let mut t = TripletMatrix::new(n, n);
        for r in 0..rows {
            for c in 0..cols {
                t.push(hub, node(r, c), 1.0);
                if c + 1 < cols {
                    t.push(node(r, c), node(r, c + 1), 1.0);
                }
                if r + 1 < rows {
                    t.push(node(r + 1, c), node(r, c), 1.0);
                }
            }
        }
        let p = compute_ordering(&t.to_csr(), OrderingMethod::MinDegree);
        is_permutation(&p, n);
        assert_eq!(p.unmap(n - 1), hub);
    }

    #[test]
    fn min_degree_depends_on_the_pattern_only() {
        let ckt = coupled_lines(&CoupledLinesSpec {
            lines: 5,
            segments: 12,
            random_couplings: 60,
            ..CoupledLinesSpec::default()
        })
        .unwrap();
        let (g, c) = matrices(&ckt);
        let n = g.rows();
        let a = CsrMatrix::linear_combination(1.0, &c, 1.0, &g).unwrap();
        let rescaled = from_entries(
            n,
            a.iter()
                .map(|(i, j, v)| (i, j, v * (1.0 + (i * 31 + j) as f64))),
        );
        let p = compute_ordering(&a, OrderingMethod::MinDegree);
        is_permutation(&p, n);
        assert_eq!(p, compute_ordering(&a, OrderingMethod::MinDegree));
        assert_eq!(p, compute_ordering(&rescaled, OrderingMethod::MinDegree));
    }

    #[test]
    fn workspace_compaction_does_not_change_the_ordering() {
        let ckt = coupled_lines(&CoupledLinesSpec {
            lines: 20,
            segments: 60,
            random_couplings: 900,
            ..CoupledLinesSpec::default()
        })
        .unwrap();
        let (g, c) = matrices(&ckt);
        let a = CsrMatrix::linear_combination(1.0, &c, 1.0, &g).unwrap();
        let nnz = SymmetricPattern::of(&a).idx.len();
        // With the least workspace the algorithm accepts this pattern is
        // compacted several times; with sixteen times the pattern, never.
        let tight = minimum_degree(SymmetricPattern::of(&a), 0);
        let roomy = minimum_degree(SymmetricPattern::of(&a), 16 * nnz);
        assert_eq!(tight, roomy);
        assert_eq!(
            tight,
            compute_ordering(&a, OrderingMethod::MinDegree).order()
        );
    }

    #[test]
    fn min_degree_fill_is_within_a_tenth_of_exact_greedy_on_the_generators() {
        let lines = |lines, segments, random_couplings, mosfet_drivers| {
            coupled_lines(&CoupledLinesSpec {
                lines,
                segments,
                random_couplings,
                mosfet_drivers,
                ..CoupledLinesSpec::default()
            })
        };
        let circuits = [
            (
                "rc_mesh 44x44",
                rc_mesh(&RcMeshSpec {
                    rows: 44,
                    cols: 44,
                    ..RcMeshSpec::default()
                }),
            ),
            (
                "rc_mesh 8x120",
                rc_mesh(&RcMeshSpec {
                    rows: 8,
                    cols: 120,
                    ..RcMeshSpec::default()
                }),
            ),
            (
                "rc_ladder 600",
                rc_ladder(&RcLadderSpec {
                    segments: 600,
                    ..RcLadderSpec::default()
                }),
            ),
            ("coupled_lines 16x30", lines(16, 30, 0, true)),
            ("coupled_lines 16x30 + 900", lines(16, 30, 900, true)),
            ("coupled_lines 6x15 + 800", lines(6, 15, 800, false)),
            ("coupled_lines 20x90", lines(20, 90, 0, false)),
            ("coupled_lines 20x90 + 400", lines(20, 90, 400, false)),
            (
                "power_grid 40x40",
                power_grid(&PowerGridSpec {
                    rows: 40,
                    cols: 40,
                    num_sinks: 60,
                    ..PowerGridSpec::default()
                }),
            ),
        ];
        for (name, ckt) in circuits {
            let ckt = ckt.unwrap();
            let n = ckt.num_unknowns();
            assert!(n <= 2000, "{name}: n = {n}");
            let (g, c) = matrices(&ckt);
            let benr = CsrMatrix::linear_combination(1e12, &c, 1.0, &g).unwrap();
            for (role, a) in [("G", &g), ("C/h+G", &benr)] {
                let exact =
                    Permutation::from_order(&exact_minimum_degree(&SymmetricPattern::of(a)))
                        .unwrap();
                let reordered =
                    from_entries(n, a.iter().map(|(i, j, v)| (exact.map(i), exact.map(j), v)));
                let exact_fill = fill(&reordered, OrderingMethod::Natural);
                let amd_fill = fill(a, OrderingMethod::MinDegree);
                assert!(
                    amd_fill * 10 <= exact_fill * 11,
                    "{name}, {role}: fill {amd_fill} against exact minimum degree {exact_fill}"
                );
            }
        }
    }

    #[test]
    fn fifo_ties_interleave_independent_chains() {
        let (k, length) = (16, 30);
        // Paths with one free end, the shape of a driven line: every round of
        // k pivots takes one node from each path.
        let stride = length + 2;
        let p = compute_ordering(&disjoint_paths(k, length, true), OrderingMethod::MinDegree);
        is_permutation(&p, k * stride);
        for round in p.order()[..k * (length - 1)].chunks(k) {
            let mut paths: Vec<usize> = round.iter().map(|&i| i / stride).collect();
            paths.sort_unstable();
            assert_eq!(paths, (0..k).collect::<Vec<_>>(), "round {round:?}");
        }
        // Free paths are eaten from both ends: two nodes of each per round.
        let p = compute_ordering(&disjoint_paths(k, length, false), OrderingMethod::MinDegree);
        is_permutation(&p, k * length);
        for round in p.order()[..k * (length - 2)].chunks(2 * k) {
            let mut paths: Vec<usize> = round.iter().map(|&i| i / length).collect();
            paths.sort_unstable();
            let twice: Vec<usize> = (0..2 * k).map(|i| i / 2).collect();
            assert_eq!(paths, twice, "round {round:?}");
        }
    }
}
