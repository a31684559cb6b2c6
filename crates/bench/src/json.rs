//! `--json` dumps: conversion of the experiment binaries' records into
//! the one report value tree.
//!
//! The build environment is offline, so instead of `serde`/`serde_json`
//! the harness has [`ToJson`] — conversion into a [`benu_obs::Value`],
//! which renders itself canonically ([`Value::render_json`]:
//! pretty-printed, deterministic-order JSON, exactly what the plotting
//! scripts consume) — plus the [`impl_to_json!`](crate::impl_to_json)
//! macro, which derives [`ToJson`] for the flat record structs each
//! binary defines.

pub use benu_obs::{Report, Value};

/// Conversion into a report [`Value`] (the `Serialize` stand-in).
pub trait ToJson {
    /// The value-tree representation.
    fn to_json(&self) -> Value;
}

/// The scalars a record field can hold: exactly the types the report
/// tree already converts from.
macro_rules! impl_to_json_scalar {
    ($($t:ty),*) => {$(
        impl ToJson for $t {
            fn to_json(&self) -> Value {
                Value::from(self.clone())
            }
        }
    )*};
}

impl_to_json_scalar!(u32, u64, usize, i64, f64, bool, String);

impl ToJson for Report {
    fn to_json(&self) -> Value {
        Value::Tree(self.clone())
    }
}

/// Derives [`ToJson`] for a struct with `ToJson` fields:
///
/// ```ignore
/// struct Row { name: String, time_s: f64 }
/// impl_to_json!(Row { name, time_s });
/// ```
#[macro_export]
macro_rules! impl_to_json {
    ($ty:ty { $($field:ident),+ $(,)? }) => {
        impl $crate::json::ToJson for $ty {
            fn to_json(&self) -> $crate::json::Value {
                let mut fields = $crate::json::Report::new();
                $(
                    fields.set(
                        stringify!($field),
                        $crate::json::ToJson::to_json(&self.$field),
                    );
                )+
                $crate::json::Value::Tree(fields)
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    struct Row {
        name: String,
        count: u64,
        ratio: f64,
    }

    impl_to_json!(Row { name, count, ratio });

    #[test]
    fn renders_struct_via_macro() {
        let row = Row {
            name: "q1".into(),
            count: 42,
            ratio: 1.5,
        };
        assert_eq!(
            row.to_json().render_json(),
            "{\n  \"name\": \"q1\",\n  \"count\": 42,\n  \"ratio\": 1.5\n}\n"
        );
    }
}
