//! Thin helpers over `hpcbd_obs::JsonValue`, the repo's own JSON
//! document model (the workspace vendors no serde).

use hpcbd_obs::JsonValue;

/// A float as a JSON number with all its digits. Non-finite values (a
/// ratio over an empty count) are written as 0.
pub fn num(v: f64) -> JsonValue {
    JsonValue::Num(if v.is_finite() {
        format!("{v}")
    } else {
        "0".into()
    })
}

pub fn obj(fields: Vec<(&str, JsonValue)>) -> JsonValue {
    JsonValue::Obj(
        fields
            .into_iter()
            .map(|(k, v)| (k.to_string(), v))
            .collect(),
    )
}

pub fn nums(values: &[f64]) -> JsonValue {
    JsonValue::Arr(values.iter().map(|v| num(*v)).collect())
}

pub fn f64_at(v: &JsonValue, key: &str) -> Option<f64> {
    match v.get(key)? {
        JsonValue::Num(text) => text.parse().ok(),
        _ => None,
    }
}

pub fn str_at<'a>(v: &'a JsonValue, key: &str) -> Option<&'a str> {
    match v.get(key)? {
        JsonValue::Str(s) => Some(s),
        _ => None,
    }
}

pub fn f64s_at(v: &JsonValue, key: &str) -> Vec<f64> {
    v.get(key)
        .and_then(JsonValue::as_arr)
        .map(|items| {
            items
                .iter()
                .filter_map(|x| match x {
                    JsonValue::Num(text) => text.parse().ok(),
                    _ => None,
                })
                .collect()
        })
        .unwrap_or_default()
}

/// The fields of an object value, in order; empty for anything else.
pub fn fields(v: &JsonValue) -> &[(String, JsonValue)] {
    match v {
        JsonValue::Obj(kvs) => kvs,
        _ => &[],
    }
}
