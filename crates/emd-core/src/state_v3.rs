//! Reading a format-v3 checkpoint into the current state schema.
//!
//! v3 stored every pooled mention twice: in its sentence record's
//! `global_mentions`, and in its candidate's `mentions` list plus `seen`
//! dedup set (with `evicted_mentions` / `evicted_locally_detected`
//! folding in the mentions whose sentences had left the window). v4
//! candidates keep counters only, and sentence records carry `retired`.
//! [`migrate`] rewrites a decoded v3 JSON tree into the v4 shape, and the
//! ordinary decoders run on the result:
//!
//! * a candidate's mention count is `mentions.len() + evicted_mentions`;
//!   it must equal its pooled `emb_count`, which v4 reports as the
//!   frequency, or the checkpoint is rejected;
//! * its `n_local` is its locally detected mentions plus
//!   `evicted_locally_detected`;
//! * a live record's `retired` is the spans some candidate's `seen` holds
//!   for its sentence id, minus its `global_mentions`, ascending.
//!
//! The tree is recognised by shape: a v3 candidate carries `mentions`,
//! and a v3 sentence record lacks `retired`.

use emd_text::token::{SentenceId, Span};
use serde::value::{Number, Value};
use serde::{DeError, Deserialize};
use std::collections::HashMap;

fn field<'a>(v: &'a Value, name: &str) -> Result<&'a Value, DeError> {
    v.get_field(name)
        .ok_or_else(|| DeError::msg(format!("v3 state: missing field `{name}`")))
}

fn array(v: &Value) -> Result<&[Value], DeError> {
    match v {
        Value::Arr(items) => Ok(items),
        other => Err(DeError::msg(format!(
            "v3 state: expected array, got {}",
            other.kind()
        ))),
    }
}

/// The items of `state.<store>.<list>`, mutably.
fn list_mut<'a>(state: &'a mut Value, store: &str, list: &str) -> Result<&'a mut [Value], DeError> {
    let missing = || DeError::msg(format!("v3 state: missing array `{store}.{list}`"));
    let Value::Obj(fields) = state else {
        return Err(missing());
    };
    let store = fields
        .iter_mut()
        .find(|(k, _)| k == store)
        .map(|(_, v)| v)
        .ok_or_else(missing)?;
    let Value::Obj(fields) = store else {
        return Err(missing());
    };
    match fields.iter_mut().find(|(k, _)| k == list) {
        Some((_, Value::Arr(items))) => Ok(items),
        _ => Err(missing()),
    }
}

/// The items of `state.<store>.<list>`, or nothing.
fn list<'a>(state: &'a Value, store: &str, list: &str) -> &'a [Value] {
    match state.get_field(store).and_then(|s| s.get_field(list)) {
        Some(Value::Arr(items)) => items,
        _ => &[],
    }
}

/// Remove and return an object field.
fn take(fields: &mut Vec<(String, Value)>, name: &str) -> Result<Value, DeError> {
    let i = fields
        .iter()
        .position(|(k, _)| k == name)
        .ok_or_else(|| DeError::msg(format!("v3 state: missing field `{name}`")))?;
    Ok(fields.remove(i).1)
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

/// Is `state` a v3 pipeline-state tree?
pub(crate) fn is_v3(state: &Value) -> bool {
    list(state, "candidates", "records")
        .iter()
        .any(|c| c.get_field("mentions").is_some())
        || list(state, "tweetbase", "slots")
            .iter()
            .any(|r| !matches!(r, Value::Null) && r.get_field("retired").is_none())
}

/// Rewrite a v3 pipeline-state tree into the v4 shape (see the module
/// docs). Fails if a candidate's mention count and pooled count differ.
pub(crate) fn migrate(v3: &Value) -> Result<Value, DeError> {
    let mut state = v3.clone();
    let mut pooled: HashMap<SentenceId, Vec<Span>> = HashMap::new();
    for rec in list_mut(&mut state, "candidates", "records")? {
        let key = String::from_value(field(rec, "key")?)?;
        let emb_count = usize::from_value(field(rec, "emb_count")?)?;
        let Value::Obj(fields) = rec else {
            return Err(DeError::msg("v3 state: candidate is not an object"));
        };
        let mentions = take(fields, "mentions")?;
        let mentions = array(&mentions)?;
        let evicted = usize::from_value(&take(fields, "evicted_mentions")?)?;
        let frequency = mentions.len() + evicted;
        if frequency != emb_count {
            return Err(DeError::msg(format!(
                "v3 state: candidate `{key}` has {frequency} mentions \
                 but {emb_count} pooled embeddings"
            )));
        }
        let mut n_local = usize::from_value(&take(fields, "evicted_locally_detected")?)?;
        for m in mentions {
            n_local += usize::from(bool::from_value(field(m, "locally_detected")?)?);
        }
        fields.push(("n_local".to_string(), count(n_local)));
        for pair in array(&take(fields, "seen")?)? {
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
        let Value::Obj(fields) = rec else {
            return Err(DeError::msg("v3 state: sentence record is not an object"));
        };
        fields.push((
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
        let v4 = migrate(&v3).unwrap();
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
        let err = migrate(&v3_tree(5)).unwrap_err();
        assert!(err.0.contains("`x` has 4 mentions but 5 pooled"), "{err}");
    }
}
