//! Reading a checkpoint from before format v6 into the current state.
//!
//! Up to v5 a candidate was named by its key, its lower-cased,
//! space-joined surface: a record carried `key` and `tokens`, and the
//! adjacency ledger paired keys (v5 `adjacency`; v4 `frozen_adjacency`,
//! which counted only evicted records' pairs). v6 names a candidate by
//! its id, the slot of its record, which its CTrie terminal holds.
//! [`to_v6`] converts the names once, into a v6 tree, which the state's
//! decoder reads as it reads a v6 file (the sentence store's `null`
//! slots become its `first` slot index, and its stored indexes are not
//! read but rebuilt from the records):
//!
//! * record `i` (discovery order) becomes candidate `i`: its `syms` are
//!   its tokens' interned symbols, and its terminal is named `i`;
//! * a ledger pair is re-keyed on the ids of its two keys; a pair naming
//!   a key with no record (a pruned candidate) is dropped, as v6 drops a
//!   pruned candidate's pairs;
//! * a v4 tree's live records' pairs, which v4 counted only at the close,
//!   are counted through the CTrie.
//!
//! v3 stored every pooled mention twice: in its sentence record's
//! `global_mentions`, and in its candidate's `mentions` list plus `seen`
//! dedup set (with `evicted_mentions` / `evicted_locally_detected`
//! folding in the mentions whose sentences had left the window). v4
//! candidates keep counters only, and sentence records carry `retired`.
//! [`to_v4`] first rewrites a v3 tree into the v4 shape:
//!
//! * a candidate's mention count is `mentions.len() + evicted_mentions`;
//!   it must equal its pooled `emb_count`, which v4 reports as the
//!   frequency, or the checkpoint is rejected;
//! * its `n_local` is its locally detected mentions plus
//!   `evicted_locally_detected`;
//! * a live record's `retired` is the spans some candidate's `seen` holds
//!   for its sentence id, minus its `global_mentions`, ascending.
//!
//! A tree is recognised by shape: only a v6 candidate store lists `free`
//! ids, a v3 candidate carries `mentions`, and a v3 sentence record lacks
//! `retired`.

use crate::candidatebase::CandId;
use crate::globalizer::GlobalizerState;
use emd_text::intern::Interner;
use emd_text::token::{SentenceId, Span};
use serde::value::{Number, Value};
use serde::{DeError, Deserialize};
use std::collections::HashMap;

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, DeError> {
    v.get_field(name)
        .ok_or_else(|| DeError::msg(format!("old state: missing field `{name}`")))
}

fn array(v: &Value) -> Result<&[Value], DeError> {
    match v {
        Value::Arr(items) => Ok(items),
        other => Err(DeError::msg(format!(
            "old state: expected array, got {}",
            other.kind()
        ))),
    }
}

/// The fields of the object `v`, mutably.
fn obj_mut(v: &mut Value) -> Result<&mut Vec<(String, Value)>, DeError> {
    match v {
        Value::Obj(fields) => Ok(fields),
        other => Err(DeError::msg(format!(
            "old state: expected object, got {}",
            other.kind()
        ))),
    }
}

/// The items of `state.<store>.<list>`, mutably.
fn list_mut<'a>(state: &'a mut Value, store: &str, list: &str) -> Result<&'a mut [Value], DeError> {
    let store = obj_mut(state)?
        .iter_mut()
        .find(|(k, _)| k == store)
        .map(|(_, v)| v);
    let items = store
        .map(obj_mut)
        .transpose()?
        .and_then(|fields| fields.iter_mut().find(|(k, _)| k == list).map(|(_, v)| v));
    match items {
        Some(Value::Arr(items)) => Ok(items),
        _ => Err(DeError::msg(format!("old state: missing array `{list}`"))),
    }
}

/// The items of `state.<store>.<list>`, or nothing.
fn list<'a>(state: &'a Value, store: &str, list: &str) -> &'a [Value] {
    match state.get_field(store).and_then(|s| s.get_field(list)) {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

/// Remove and return an object field, or `Null` when there is none.
fn take(fields: &mut Vec<(String, Value)>, name: &str) -> Value {
    match fields.iter().position(|(k, _)| k == name) {
        Some(i) => fields.remove(i).1,
        None => Value::Null,
    }
}

fn count(n: usize) -> Value {
    Value::Num(Number::U(n as u64))
}

fn span_value(sp: Span) -> Value {
    Value::Obj(vec![
        ("start".to_string(), count(sp.start)),
        ("end".to_string(), count(sp.end)),
    ])
}

/// Is `state` a tree from before v6?
pub(crate) fn is_pre_v6(state: &Value) -> bool {
    state
        .get_field("candidates")
        .is_some_and(|c| c.get_field("free").is_none())
}

/// Is `state` a v3 pipeline-state tree?
fn is_v3(state: &Value) -> bool {
    list(state, "candidates", "records")
        .iter()
        .any(|c| c.get_field("mentions").is_some())
        || list(state, "tweetbase", "slots")
            .iter()
            .any(|r| !matches!(r, Value::Null) && r.get_field("retired").is_none())
}

/// Decode a v3, v4 or v5 state tree through the v6 tree shape (see the
/// module docs).
pub(crate) fn to_v6(old: &Value) -> Result<GlobalizerState, DeError> {
    #[derive(Deserialize)]
    struct FrozenPairV4 {
        first: String,
        second: String,
        count: u64,
    }
    let mut tree = if is_v3(old) { to_v4(old)? } else { old.clone() };
    let interner = Interner::from_value(field(field(&tree, "tweetbase")?, "interner")?)?;
    let mut ids: HashMap<String, CandId> = HashMap::new();
    for (id, rec) in list_mut(&mut tree, "candidates", "records")?
        .iter_mut()
        .enumerate()
    {
        let fields = obj_mut(rec)?;
        let key = String::from_value(&take(fields, "key"))?;
        let syms: Option<Vec<Value>> = Vec::<String>::from_value(&take(fields, "tokens"))?
            .iter()
            .map(|t| Some(count(interner.lookup_folded(t)? as usize)))
            .collect();
        let syms = syms.ok_or_else(|| {
            DeError::msg(format!(
                "old state: candidate `{key}` has an uninterned token"
            ))
        })?;
        fields.push(("syms".to_string(), Value::Arr(syms)));
        ids.insert(key, id as CandId);
    }
    for node in list_mut(&mut tree, "ctrie", "nodes")? {
        obj_mut(node)?.push(("cand".to_string(), Value::Null));
    }
    let top = obj_mut(&mut tree)?;
    let frozen = take(top, "frozen_adjacency");
    let pairs: Vec<(String, String, u64)> = match frozen {
        Value::Null => Vec::from_value(&take(top, "adjacency"))?,
        _ => Vec::<FrozenPairV4>::from_value(&frozen)?
            .into_iter()
            .map(|p| (p.first, p.second, p.count))
            .collect(),
    };
    top.push(("adjacency".to_string(), Value::Arr(Vec::new())));
    if let Some((_, store)) = top.iter_mut().find(|(k, _)| k == "candidates") {
        obj_mut(store)?.push(("free".to_string(), Value::Arr(Vec::new())));
    }

    let mut state = GlobalizerState::from_value(&tree)?;
    for (id, rec) in state.candidates.entries() {
        let node = state
            .ctrie
            .find(&rec.syms)
            .filter(|&n| state.ctrie.is_terminal(n));
        let node = node.ok_or_else(|| DeError::msg("old state: a candidate has no terminal"))?;
        state.ctrie.set_cand(node, id);
    }
    for (a, b, n) in pairs {
        if let (Some(&a), Some(&b)) = (ids.get(&a), ids.get(&b)) {
            state.adjacency.add_count((a, b), n);
        }
    }
    if frozen != Value::Null {
        for rec in state.tweetbase.iter() {
            state.adjacency.add_record(rec, &state.ctrie);
        }
    }
    Ok(state)
}

/// Rewrite a v3 pipeline-state tree into the v4 shape (see the module
/// docs). Fails if a candidate's mention count and pooled count differ.
fn to_v4(v3: &Value) -> Result<Value, DeError> {
    let mut state = v3.clone();
    let mut pooled: HashMap<SentenceId, Vec<Span>> = HashMap::new();
    for rec in list_mut(&mut state, "candidates", "records")? {
        let key = String::from_value(field(rec, "key")?)?;
        let emb_count = usize::from_value(field(rec, "emb_count")?)?;
        let fields = obj_mut(rec)?;
        let mentions = take(fields, "mentions");
        let mentions = array(&mentions)?;
        let evicted = usize::from_value(&take(fields, "evicted_mentions"))?;
        let frequency = mentions.len() + evicted;
        if frequency != emb_count {
            return Err(DeError::msg(format!(
                "v3 state: candidate `{key}` has {frequency} mentions \
                 but {emb_count} pooled embeddings"
            )));
        }
        let mut n_local = usize::from_value(&take(fields, "evicted_locally_detected"))?;
        for m in mentions {
            n_local += usize::from(bool::from_value(field(m, "locally_detected")?)?);
        }
        fields.push(("n_local".to_string(), count(n_local)));
        for pair in array(&take(fields, "seen"))? {
            let (sid, span) = <(SentenceId, Span)>::from_value(pair)?;
            pooled.entry(sid).or_default().push(span);
        }
    }
    for rec in list_mut(&mut state, "tweetbase", "slots")? {
        if matches!(rec, Value::Null) {
            continue;
        }
        let sid = SentenceId::from_value(field(field(rec, "sentence")?, "id")?)?;
        let held = Vec::<Span>::from_value(field(rec, "global_mentions")?)?;
        let mut retired = pooled.remove(&sid).unwrap_or_default();
        retired.retain(|sp| !held.contains(sp));
        retired.sort_unstable();
        retired.dedup();
        obj_mut(rec)?.push((
            "retired".to_string(),
            Value::Arr(retired.into_iter().map(span_value).collect()),
        ));
    }
    Ok(state)
}

#[cfg(test)]
mod tests {
    use super::*;

    /// The JSON tree, kept as is.
    struct Tree(Value);

    impl Deserialize for Tree {
        fn from_value(v: &Value) -> Result<Tree, DeError> {
            Ok(Tree(v.clone()))
        }
    }

    /// The fields of a v3 state the migration reads: one evicted slot,
    /// two live records, and a candidate `x` with two live mentions in
    /// sentence 7 (one since retired from its extraction) and two evicted.
    fn v3_tree(emb_count: usize) -> Value {
        let sid = r#"{"tweet_id":7,"sent_id":0}"#;
        let json = format!(
            r#"{{"tweetbase":{{"slots":[null,
                {{"sentence":{{"id":{sid}}},"global_mentions":[{{"start":3,"end":5}}]}},
                {{"sentence":{{"id":{{"tweet_id":8,"sent_id":0}}}},"global_mentions":[]}}]}},
              "candidates":{{"records":[{{"key":"x","emb_count":{emb_count},
                "mentions":[
                  {{"sid":{sid},"span":{{"start":0,"end":2}},"locally_detected":false}},
                  {{"sid":{sid},"span":{{"start":3,"end":5}},"locally_detected":true}}],
                "seen":[[{sid},{{"start":3,"end":5}}],[{sid},{{"start":0,"end":2}}]],
                "evicted_mentions":2,"evicted_locally_detected":1}}]}}}}"#
        );
        serde_json::from_str::<Tree>(&json).unwrap().0
    }

    #[test]
    fn migrates_counters_and_retired_spans() {
        let v3 = v3_tree(4);
        assert!(is_v3(&v3));
        let v4 = to_v4(&v3).unwrap();
        assert!(!is_v3(&v4));
        let cand = &list(&v4, "candidates", "records")[0];
        assert_eq!(cand.get_field("n_local"), Some(&count(2)));
        for gone in [
            "mentions",
            "seen",
            "evicted_mentions",
            "evicted_locally_detected",
        ] {
            assert!(cand.get_field(gone).is_none(), "{gone} survived");
        }
        let slots = list(&v4, "tweetbase", "slots");
        assert_eq!(slots[0], Value::Null);
        let retired = |i: usize| Vec::<Span>::from_value(field(&slots[i], "retired")?);
        assert_eq!(retired(1).unwrap(), vec![Span::new(0, 2)]);
        assert_eq!(retired(2).unwrap(), vec![]);
    }

    #[test]
    fn mention_count_must_equal_pooled_count() {
        let err = to_v4(&v3_tree(5)).unwrap_err();
        assert!(err.0.contains("`x` has 4 mentions but 5 pooled"), "{err}");
    }
}
