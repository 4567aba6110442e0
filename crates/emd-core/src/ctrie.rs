//! The CandidatePrefixTrie (CTrie): a case-insensitive, token-level prefix
//! trie forest indexing the seed entity candidates discovered by Local EMD.
//!
//! Nodes correspond to lower-cased tokens; candidates sharing a prefix live
//! in the same subtree. The trie supports the incremental traversal the
//! candidate-mention-extraction scan (§V-A) needs: `child_sym(node, sym)`
//! and `is_terminal(node)`.
//!
//! Edges are labelled with interned [`Sym`]s from the pipeline's shared
//! [`Interner`]: the scan walks the trie with integer compares against
//! symbols the ingest step already produced. The string-facing entry
//! points (`insert`/`child`) take the interner and fold through it with
//! `str::to_lowercase()` semantics. Node ids and symbols are assigned by
//! the program, never chosen by the stream, so the edge table hashes
//! them with the seeded id hasher ([`emd_text::idhash`]) rather than
//! SipHash; the checkpoint writes edges in key order, so the seed never
//! reaches its text.
//!
//! A terminal is a candidate's one identity: from the first scan that
//! extracts the candidate until it is pruned, the terminal holds the
//! candidate's [`CandId`], its slot in the
//! [`crate::candidatebase::CandidateBase`].

use crate::candidatebase::CandId;
use emd_text::idhash::IdHashMap;
use emd_text::intern::{Interner, Sym};
use serde::value::Value;
use serde::{ser, DeError, Deserialize, Serialize};

/// Node id inside the trie arena. The root is [`CTrie::ROOT`].
pub type NodeId = u32;

#[derive(Debug, Clone, Copy, Default)]
struct Node {
    /// True when the path from the root to this node spells a registered
    /// candidate.
    terminal: bool,
    /// The candidate's id, once a scan has extracted it.
    cand: Option<CandId>,
    /// Number of edges leaving this node.
    n_children: u32,
}

/// Case-insensitive token-level prefix trie forest.
///
/// Flat storage: the nodes are one `Copy` vector and every edge lives in
/// one `(parent, symbol) → child` table, so cloning the trie (the
/// supervisor snapshots the state before every batch) is a few block
/// copies, and dropping it a few frees.
///
/// Supports removal: pruning a low-frequency cold candidate unmarks its
/// terminal and frees any now-childless path nodes onto a free-list that
/// later insertions reuse, so a long-running stream's trie arena tracks the
/// *live* candidate set instead of growing monotonically.
#[derive(Debug, Clone)]
pub struct CTrie {
    nodes: Vec<Node>,
    edges: IdHashMap<(NodeId, Sym), NodeId>,
    n_candidates: usize,
    /// Arena slots freed by [`CTrie::remove_syms`], reused by later inserts.
    free: Vec<NodeId>,
}

impl Default for CTrie {
    fn default() -> Self {
        Self::new()
    }
}

impl CTrie {
    /// Root node id.
    pub const ROOT: NodeId = 0;

    /// Empty trie.
    pub fn new() -> CTrie {
        CTrie {
            nodes: vec![Node::default()],
            edges: IdHashMap::default(),
            n_candidates: 0,
            free: Vec::new(),
        }
    }

    /// Insert a candidate given its tokens (any casing), interning each
    /// folded token. Returns `true` if the candidate was new.
    pub fn insert<S: AsRef<str>>(&mut self, interner: &mut Interner, tokens: &[S]) -> bool {
        let syms: Vec<Sym> = tokens
            .iter()
            .map(|t| interner.intern_folded(t.as_ref()))
            .collect();
        self.insert_syms(&syms)
    }

    /// Insert a candidate given its already-folded symbols. Returns `true`
    /// if the candidate was new.
    pub fn insert_syms(&mut self, syms: &[Sym]) -> bool {
        if syms.is_empty() {
            return false;
        }
        let mut node = Self::ROOT;
        for &key in syms {
            node = self.child_or_insert(node, key);
        }
        let node = &mut self.nodes[node as usize];
        if node.terminal {
            false
        } else {
            node.terminal = true;
            self.n_candidates += 1;
            true
        }
    }

    /// Follow the edge `key` from `node`, creating it (reusing a freed
    /// arena slot when one exists) if absent.
    fn child_or_insert(&mut self, node: NodeId, key: Sym) -> NodeId {
        if let Some(id) = self.child_sym(node, key) {
            return id;
        }
        // Reuse a freed slot before growing the arena (freed nodes are
        // reset to default on removal).
        let id = self.free.pop().unwrap_or_else(|| {
            self.nodes.push(Node::default());
            (self.nodes.len() - 1) as NodeId
        });
        self.edges.insert((node, key), id);
        self.nodes[node as usize].n_children += 1;
        id
    }

    /// Remove a registered candidate by its folded symbols. Unmarks the
    /// terminal, drops its id, and frees every now-childless, non-terminal
    /// node on the path (bottom-up) onto the free-list. Returns `true`
    /// when the candidate was present. Paths shared with other candidates
    /// (prefixes or extensions) are left intact.
    pub fn remove_syms(&mut self, syms: &[Sym]) -> bool {
        if syms.is_empty() {
            return false;
        }
        // Walk down, recording (parent, key, child) per step.
        let mut path: Vec<(NodeId, Sym, NodeId)> = Vec::with_capacity(syms.len());
        let mut node = Self::ROOT;
        for &key in syms {
            match self.child_sym(node, key) {
                Some(id) => {
                    path.push((node, key, id));
                    node = id;
                }
                None => return false,
            }
        }
        if !self.nodes[node as usize].terminal {
            return false;
        }
        let n = &mut self.nodes[node as usize];
        n.terminal = false;
        n.cand = None;
        self.n_candidates -= 1;
        // Prune childless non-terminal nodes bottom-up; stop at the first
        // node still needed (terminal, or carrying other candidates below).
        for (parent, key, child) in path.into_iter().rev() {
            let n = &self.nodes[child as usize];
            if n.terminal || n.n_children > 0 {
                break;
            }
            self.edges.remove(&(parent, key));
            self.nodes[parent as usize].n_children -= 1;
            self.nodes[child as usize] = Node::default();
            self.free.push(child);
        }
        true
    }

    /// Follow the edge labelled `sym` — the allocation-free hot-path step
    /// the occurrence scan uses (sentence tokens are interned at ingest).
    #[inline]
    pub fn child_sym(&self, node: NodeId, sym: Sym) -> Option<NodeId> {
        self.edges.get(&(node, sym)).copied()
    }

    /// Follow the edge labelled with the lower-cased form of `token`.
    ///
    /// Folding goes through [`Interner::lookup_folded`], which preserves
    /// the historical `str::to_lowercase()` key scheme: some non-ASCII
    /// characters (e.g. "ß") do not fold to the same key as their
    /// uppercase spelling ("SS" → "ss"), and the interner keeps them
    /// distinct just as the old String-keyed edges did.
    pub fn child(&self, interner: &Interner, node: NodeId, token: &str) -> Option<NodeId> {
        let sym = interner.lookup_folded(token)?;
        self.child_sym(node, sym)
    }

    /// Does the path ending at `node` spell a candidate?
    pub fn is_terminal(&self, node: NodeId) -> bool {
        self.nodes[node as usize].terminal
    }

    /// The node the path `syms` ends at, if the trie holds that path.
    pub fn find(&self, syms: &[Sym]) -> Option<NodeId> {
        syms.iter()
            .try_fold(Self::ROOT, |node, &sym| self.child_sym(node, sym))
    }

    /// The id of the candidate the path `syms` spells, once named.
    pub fn cand_of(&self, syms: &[Sym]) -> Option<CandId> {
        self.cand(self.find(syms)?)
    }

    /// The id of the candidate whose terminal is `node`, once named.
    #[inline]
    pub fn cand(&self, node: NodeId) -> Option<CandId> {
        self.nodes[node as usize].cand
    }

    /// Name the terminal `node` with candidate id `id`.
    pub fn set_cand(&mut self, node: NodeId, id: CandId) {
        debug_assert!(self.is_terminal(node));
        self.nodes[node as usize].cand = Some(id);
    }

    /// Number of registered candidates.
    pub fn len(&self) -> usize {
        self.n_candidates
    }

    /// True when no candidates are registered.
    pub fn is_empty(&self) -> bool {
        self.n_candidates == 0
    }

    /// Number of live trie nodes (diagnostics / memory accounting; freed
    /// slots awaiting reuse are not counted).
    pub fn n_nodes(&self) -> usize {
        self.nodes.len() - self.free.len()
    }

    /// Estimated heap bytes, from capacities in O(1): the node vector,
    /// the free list, and the edge table (an entry plus one control byte
    /// per slot). An estimate for gauges, not allocator-exact.
    pub fn resident_bytes(&self) -> usize {
        use std::mem::size_of;
        self.nodes.capacity() * size_of::<Node>()
            + self.free.capacity() * size_of::<NodeId>()
            + self.edges.capacity() * (size_of::<((NodeId, Sym), NodeId)>() + 1)
    }
}

/// The checkpoint schema: one object per node with its `children` as
/// `[symbol, child]` pairs (in symbol order), `terminal` and `cand`; then
/// `n_candidates` and `free`.
impl Serialize for CTrie {
    fn write_json(&self, out: &mut ser::Out<'_>) {
        /// A node and its `(parent, symbol, child)` edges.
        struct NodeJson<'a>(&'a Node, &'a [(NodeId, Sym, NodeId)]);
        impl Serialize for NodeJson<'_> {
            fn write_json(&self, out: &mut ser::Out<'_>) {
                out.push_str("{\"children\":");
                ser::write_seq(self.1.iter().map(|&(_, sym, child)| (sym, child)), out);
                out.push_str(",\"terminal\":");
                self.0.terminal.write_json(out);
                out.push_str(",\"cand\":");
                self.0.cand.write_json(out);
                out.push('}');
            }
        }
        let mut edges: Vec<_> = self.edges.iter().map(|(&(p, s), &c)| (p, s, c)).collect();
        edges.sort_unstable();
        let mut rest = &edges[..];
        let nodes = self.nodes.iter().map(|node| {
            let (children, tail) = rest.split_at(node.n_children as usize);
            rest = tail;
            NodeJson(node, children)
        });
        out.push_str("{\"nodes\":");
        ser::write_seq(nodes, out);
        out.push_str(",\"n_candidates\":");
        self.n_candidates.write_json(out);
        out.push_str(",\"free\":");
        self.free.write_json(out);
        out.push('}');
    }
}

impl Deserialize for CTrie {
    fn from_value(v: &Value) -> Result<CTrie, DeError> {
        /// The schema's shape, named as the types it encodes.
        mod schema {
            use super::*;
            #[derive(Deserialize)]
            pub struct Node {
                pub children: Vec<(Sym, NodeId)>,
                pub terminal: bool,
                pub cand: Option<CandId>,
            }
            #[derive(Deserialize)]
            pub struct CTrie {
                pub nodes: Vec<Node>,
                pub n_candidates: usize,
                pub free: Vec<NodeId>,
            }
        }
        let t = schema::CTrie::from_value(v)?;
        let too_many = |_| DeError::msg("CTrie too large for u32 node ids");
        let n_nodes = NodeId::try_from(t.nodes.len()).map_err(too_many)?;
        let mut edges = IdHashMap::default();
        let mut nodes = Vec::with_capacity(t.nodes.len());
        for (parent, n) in (0..n_nodes).zip(t.nodes) {
            for &(sym, child) in &n.children {
                let bad = child == CTrie::ROOT || child >= n_nodes;
                if bad || edges.insert((parent, sym), child).is_some() {
                    return Err(DeError::msg(format!("CTrie node {parent}: bad edge {sym}")));
                }
            }
            nodes.push(Node {
                terminal: n.terminal,
                cand: n.cand,
                n_children: u32::try_from(n.children.len()).map_err(too_many)?,
            });
        }
        Ok(CTrie {
            nodes,
            edges,
            n_candidates: t.n_candidates,
            free: t.free,
        })
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn syms(it: &mut Interner, tokens: &[&str]) -> Vec<Sym> {
        tokens.iter().map(|t| it.intern_folded(t)).collect()
    }

    /// Is the token sequence (any casing) a registered candidate?
    fn holds(t: &CTrie, it: &Interner, tokens: &[&str]) -> bool {
        let syms: Option<Vec<Sym>> = tokens.iter().map(|w| it.lookup_folded(w)).collect();
        syms.and_then(|s| t.find(&s))
            .is_some_and(|n| n != CTrie::ROOT && t.is_terminal(n))
    }

    #[test]
    fn insert_and_find_case_insensitive() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        assert!(t.insert(&mut it, &["Andy", "Beshear"]));
        assert!(holds(&t, &it, &["andy", "beshear"]));
        assert!(holds(&t, &it, &["ANDY", "BESHEAR"]));
        assert!(!holds(&t, &it, &["andy"]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn duplicate_insert_returns_false() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        assert!(t.insert(&mut it, &["covid"]));
        assert!(!t.insert(&mut it, &["COVID"]));
        assert_eq!(t.len(), 1);
    }

    #[test]
    fn prefix_is_not_candidate_unless_inserted() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["world", "health", "organization"]);
        assert!(!holds(&t, &it, &["world"]));
        assert!(!holds(&t, &it, &["world", "health"]));
        t.insert(&mut it, &["world", "health"]);
        assert!(holds(&t, &it, &["world", "health"]));
        assert_eq!(t.len(), 2);
    }

    #[test]
    fn shared_prefixes_share_nodes() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["andy", "beshear"]);
        t.insert(&mut it, &["andy", "murray"]);
        // root + andy + beshear + murray = 4 nodes
        assert_eq!(t.n_nodes(), 4);
    }

    #[test]
    fn traversal_api() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["new", "york", "city"]);
        let n1 = t.child(&it, CTrie::ROOT, "New").unwrap();
        assert!(!t.is_terminal(n1));
        let n2 = t.child(&it, n1, "YORK").unwrap();
        let n3 = t.child(&it, n2, "city").unwrap();
        assert!(t.is_terminal(n3));
        assert!(t.child(&it, n1, "jersey").is_none());
        // Symbol-level traversal agrees with the string-level one.
        let york = it.lookup_folded("york").unwrap();
        assert_eq!(t.child_sym(n1, york), Some(n2));
        assert_eq!(t.find(&syms(&mut it, &["new", "york", "city"])), Some(n3));
    }

    #[test]
    fn child_fast_path_matches_slow_path() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["straße", "café"]);
        t.insert(&mut it, &["covid"]);
        // Lowercase ASCII (fast path), mixed-case ASCII and non-ASCII
        // (slow path) must agree on every edge.
        assert!(t.child(&it, CTrie::ROOT, "covid").is_some());
        assert!(t.child(&it, CTrie::ROOT, "COVID").is_some());
        assert!(t.child(&it, CTrie::ROOT, "CoViD").is_some());
        let n = t.child(&it, CTrie::ROOT, "STRASSE");
        // "STRASSE".to_lowercase() is "strasse", a different key than
        // "straße" — both paths must agree that it misses.
        assert!(n.is_none());
        let n = t.child(&it, CTrie::ROOT, "straße").unwrap();
        assert!(t.child(&it, n, "CAFÉ").is_some());
        assert!(t.child(&it, n, "café").is_some());
        assert!(t.child(&it, CTrie::ROOT, "missing").is_none());
    }

    #[test]
    fn empty_insert_rejected() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        assert!(!t.insert::<&str>(&mut it, &[]));
        assert!(!t.insert_syms(&[]));
        assert!(t.is_empty());
    }

    #[test]
    fn remove_prunes_exclusive_path() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["world", "health", "organization"]);
        assert_eq!(t.n_nodes(), 4);
        let who = syms(&mut it, &["World", "Health", "Organization"]);
        assert!(t.remove_syms(&who));
        assert!(!holds(&t, &it, &["world", "health", "organization"]));
        assert_eq!(t.len(), 0);
        assert_eq!(t.n_nodes(), 1, "exclusive path fully pruned");
        // Removing again is a no-op, as is removing an unknown path.
        assert!(!t.remove_syms(&who));
        assert!(!t.remove_syms(&syms(&mut it, &["never", "inserted"])));
    }

    #[test]
    fn remove_keeps_shared_prefixes_and_extensions() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["andy", "beshear"]);
        t.insert(&mut it, &["andy", "murray"]);
        t.insert(&mut it, &["andy"]);
        assert!(t.remove_syms(&syms(&mut it, &["andy", "beshear"])));
        assert!(holds(&t, &it, &["andy", "murray"]));
        assert!(holds(&t, &it, &["andy"]));
        assert_eq!(t.len(), 2);
        // Removing a terminal that still has children keeps the node.
        let andy = syms(&mut it, &["andy"]);
        assert!(t.remove_syms(&andy));
        assert!(holds(&t, &it, &["andy", "murray"]));
        assert!(!holds(&t, &it, &["andy"]));
        // A prefix that was never inserted cannot be removed.
        assert!(!t.remove_syms(&andy));
    }

    #[test]
    fn freed_nodes_are_reused_by_insert() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["alpha", "beta"]);
        let peak = t.n_nodes();
        t.remove_syms(&syms(&mut it, &["alpha", "beta"]));
        assert_eq!(t.n_nodes(), 1);
        t.insert(&mut it, &["gamma", "delta"]);
        assert_eq!(
            t.n_nodes(),
            peak,
            "arena reuses freed slots instead of growing"
        );
        assert!(holds(&t, &it, &["gamma", "delta"]));
    }

    #[test]
    fn sym_level_insert_matches_string_level() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        let syms = syms(&mut it, &["New", "York"]);
        assert!(t.insert_syms(&syms));
        assert!(holds(&t, &it, &["new", "york"]));
        assert!(!t.insert(&mut it, &["NEW", "YORK"]), "same candidate");
        assert!(t.remove_syms(&syms));
        assert!(t.is_empty());
    }

    #[test]
    fn serializes_per_node_children_and_round_trips() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        t.insert(&mut it, &["andy", "murray"]);
        t.insert(&mut it, &["andy", "beshear"]);
        t.insert(&mut it, &["covid"]);
        t.remove_syms(&syms(&mut it, &["covid"]));
        let andy = t.find(&syms(&mut it, &["andy", "beshear"])).unwrap();
        t.set_cand(andy, 4);
        let json = serde_json::to_string(&t).unwrap();
        assert_eq!(
            json,
            "{\"nodes\":[{\"children\":[[0,1]],\"terminal\":false,\"cand\":null},\
             {\"children\":[[1,2],[2,3]],\"terminal\":false,\"cand\":null},\
             {\"children\":[],\"terminal\":true,\"cand\":null},\
             {\"children\":[],\"terminal\":true,\"cand\":4},\
             {\"children\":[],\"terminal\":false,\"cand\":null}],\
             \"n_candidates\":2,\"free\":[4]}"
        );
        let back: CTrie = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
        assert_eq!(back.n_nodes(), 4);
        assert_eq!(back.cand_of(&syms(&mut it, &["andy", "beshear"])), Some(4));
        // A node that repeats a symbol has no single child for it.
        let twice = json.replace("[[1,2],[2,3]]", "[[1,2],[1,3]]");
        assert!(serde_json::from_str::<CTrie>(&twice).is_err());
    }

    #[test]
    fn checkpoint_text_does_not_depend_on_the_hasher_seed() {
        use emd_text::idhash::IdHash;
        let build = |seed| {
            let mut t = CTrie {
                edges: IdHashMap::with_hasher(IdHash::with_seed(seed)),
                ..CTrie::new()
            };
            for a in 0..40 {
                for b in 0..(a % 5) {
                    t.insert_syms(&[a, 100 + b, 200 + a % 3]);
                }
                if let Some(node) = t.find(&[a]) {
                    t.insert_syms(&[a]);
                    t.set_cand(node, a);
                }
            }
            for a in (0..40).step_by(3) {
                t.remove_syms(&[a, 100, 200 + a % 3]);
            }
            t
        };
        let (t1, t2) = (build(1), build(2));
        let order = |t: &CTrie| t.edges.keys().copied().collect::<Vec<_>>();
        assert_ne!(order(&t1), order(&t2), "the seeds order the tables apart");
        let json = serde_json::to_string(&t1).unwrap();
        assert_eq!(json, serde_json::to_string(&t2).unwrap());
        let back: CTrie = serde_json::from_str(&json).unwrap();
        assert_eq!(serde_json::to_string(&back).unwrap(), json);
    }

    #[test]
    fn a_terminal_holds_its_id_until_removed() {
        let mut it = Interner::new();
        let mut t = CTrie::new();
        let path = syms(&mut it, &["andy", "beshear"]);
        t.insert_syms(&path);
        let node = t.find(&path).unwrap();
        assert_eq!(t.cand(node), None, "unnamed until first extracted");
        t.set_cand(node, 7);
        assert_eq!(t.cand(node), Some(7));
        // Re-inserting a registered candidate keeps its id.
        assert!(!t.insert_syms(&path));
        assert_eq!(t.cand(node), Some(7));
        // A removed and re-registered candidate starts unnamed.
        t.insert(&mut it, &["andy", "beshear", "jr"]);
        t.remove_syms(&path);
        t.insert_syms(&path);
        assert_eq!(t.find(&path), Some(node));
        assert_eq!(t.cand(node), None);
    }
}
