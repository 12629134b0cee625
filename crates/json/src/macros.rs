//! The [`json!`] macro for constructing [`Value`](crate::Value)s inline.

/// Builds a [`Value`](crate::Value) from JSON-like syntax.
///
/// Object values and array elements may be arbitrary expressions implementing
/// `Into<Value>`. Trailing commas are accepted. The implementation follows
/// the classic token-munching structure popularized by `serde_json`.
///
/// # Examples
///
/// ```
/// use mbp_json::json;
///
/// let h = 25;
/// let v = json!({
///     "name": "MBPlib GShare",
///     "history_length": h,
///     "tables": [1 << 4, 2, 3],
///     "nested": { "ok": true, "missing": null },
/// });
/// assert_eq!(v["history_length"].as_i64(), Some(25));
/// ```
#[macro_export]
macro_rules! json {
    ($($json:tt)+) => {
        $crate::json_internal!($($json)+)
    };
}

#[macro_export]
#[doc(hidden)]
macro_rules! json_internal {
    // Array munching: accumulate parsed elements in `[$($elems:expr,)*]`.
    (@array [$($elems:expr,)*]) => {
        vec![$($elems,)*]
    };
    (@array [$($elems:expr),*]) => {
        vec![$($elems),*]
    };
    (@array [$($elems:expr,)*] null $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(null)] $($rest)*)
    };
    (@array [$($elems:expr,)*] true $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(true)] $($rest)*)
    };
    (@array [$($elems:expr,)*] false $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!(false)] $($rest)*)
    };
    (@array [$($elems:expr,)*] [$($array:tt)*] $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!([$($array)*])] $($rest)*)
    };
    (@array [$($elems:expr,)*] {$($map:tt)*} $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!({$($map)*})] $($rest)*)
    };
    (@array [$($elems:expr,)*] $next:expr, $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($next),] $($rest)*)
    };
    (@array [$($elems:expr,)*] $last:expr) => {
        $crate::json_internal!(@array [$($elems,)* $crate::json_internal!($last)])
    };
    (@array [$($elems:expr),*] , $($rest:tt)*) => {
        $crate::json_internal!(@array [$($elems,)*] $($rest)*)
    };

    // Object munching: `@object $map (key tokens) (remaining) (copy)`.
    (@object $object:ident () () ()) => {};
    (@object $object:ident [$key:literal] ($value:expr) , $($rest:tt)*) => {
        $object.insert_static($key, $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$key:literal] ($value:expr)) => {
        $object.insert_static($key, $value);
    };
    (@object $object:ident [$($key:tt)+] ($value:expr) , $($rest:tt)*) => {
        $object.insert(($($key)+), $value);
        $crate::json_internal!(@object $object () ($($rest)*) ($($rest)*));
    };
    (@object $object:ident [$($key:tt)+] ($value:expr)) => {
        $object.insert(($($key)+), $value);
    };
    (@object $object:ident ($($key:tt)+) (: null $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(null)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: true $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(true)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: false $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!(false)) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: [$($array:tt)*] $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!([$($array)*])) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: {$($map:tt)*} $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!({$($map)*})) $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr , $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)) , $($rest)*);
    };
    (@object $object:ident ($($key:tt)+) (: $value:expr) $copy:tt) => {
        $crate::json_internal!(@object $object [$($key)+] ($crate::json_internal!($value)));
    };
    (@object $object:ident () (($key:expr) : $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($key) (: $($rest)*) (: $($rest)*));
    };
    (@object $object:ident ($($key:tt)*) ($tt:tt $($rest:tt)*) $copy:tt) => {
        $crate::json_internal!(@object $object ($($key)* $tt) ($($rest)*) ($($rest)*));
    };

    // Entry points.
    (null) => { $crate::Value::Null };
    (true) => { $crate::Value::Bool(true) };
    (false) => { $crate::Value::Bool(false) };
    ([]) => { $crate::Value::Array(vec![]) };
    ([ $($tt:tt)+ ]) => { $crate::Value::Array($crate::json_internal!(@array [] $($tt)+)) };
    ({}) => { $crate::Value::Object($crate::Map::new()) };
    ({ $($tt:tt)+ }) => {
        $crate::Value::Object({
            let mut object = $crate::Map::new();
            $crate::json_internal!(@object object () ($($tt)+) ($($tt)+));
            object
        })
    };
    ($other:expr) => { $crate::Value::from($other) };
}

#[cfg(test)]
mod tests {
    use crate::Value;

    #[test]
    fn macro_in_function_scope() {
        let v = json!({});
        assert_eq!(v, Value::object());
    }

    #[test]
    fn macro_with_expressions() {
        let n = 3;
        let v = json!({ "sum": n + 1, "list": [n, n * 2] });
        assert_eq!(v["sum"], Value::from(4));
        assert_eq!(v["list"][1], Value::from(6));
    }

    #[test]
    fn macro_trailing_commas() {
        let v = json!({ "a": 1, "b": [1, 2,], });
        assert_eq!(v["b"].as_array().unwrap().len(), 2);
    }

    #[test]
    fn macro_null_and_bools() {
        let v = json!([null, true, false]);
        assert_eq!(v[0], Value::Null);
        assert_eq!(v[1], Value::Bool(true));
        assert_eq!(v[2], Value::Bool(false));
    }

    #[test]
    fn macro_computed_keys() {
        let key = format!("table_{}", 3);
        let v = json!({ (key.as_str()): 7 });
        assert_eq!(v["table_3"], Value::from(7));
    }

    #[test]
    fn macro_nested_structures() {
        let v = json!({
            "metadata": { "predictor": { "name": "x", "sizes": [1, 2] } },
            "empty_obj": {},
            "empty_arr": [],
        });
        assert_eq!(v["metadata"]["predictor"]["sizes"][0], Value::from(1));
        assert_eq!(v["empty_obj"], Value::object());
        assert_eq!(v["empty_arr"], Value::array());
    }
}
