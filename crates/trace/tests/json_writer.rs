//! The JSON writer's rules: string escaping, the number rule, and comma
//! placement in nested and empty containers.

use nimage_trace::json::{JsonWriter, Scalar};

fn one(v: impl Scalar) -> String {
    let mut w = JsonWriter::new();
    w.value(v);
    w.finish()
}

#[test]
fn strings_escape_quotes_backslashes_and_control_characters() {
    assert_eq!(one("plain"), r#""plain""#);
    assert_eq!(one("a\"b\\c"), r#""a\"b\\c""#);
    assert_eq!(one("\n\r\t"), r#""\n\r\t""#);
    assert_eq!(one("\u{0}\u{1}\u{1f}"), r#""\u0000\u0001\u001f""#);
    // DEL and everything above the control range pass through.
    assert_eq!(one("\u{7f} é ✓ 𝄞"), "\"\u{7f} é ✓ 𝄞\"");
    assert_eq!(one(String::from("")), r#""""#);
}

#[test]
fn numbers_follow_the_one_rule() {
    assert_eq!(one(0u64), "0");
    assert_eq!(one(u64::MAX), "18446744073709551615");
    assert_eq!(one(7usize), "7");
    assert_eq!(one(true), "true");
    assert_eq!(one(2.0), "2");
    assert_eq!(one(0.1 + 0.2), "0.30000000000000004");
    assert_eq!(one(-1.5e-7), "-0.00000015");
    assert_eq!(one(f64::NAN), "0");
    assert_eq!(one(f64::INFINITY), "0");
    assert_eq!(one(f64::NEG_INFINITY), "0");
}

#[test]
fn containers_place_commas_between_siblings_only() {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.key("empty_object").object(|_| {});
        w.key("empty_array").array(|_| {});
        w.key("xs").array(|w| {
            w.value(1u64).value("two").null();
            w.object(|w| {
                w.field("k", 3.5);
            });
            w.array(|_| {});
        });
        w.field("last", false);
    });
    assert_eq!(
        w.finish(),
        r#"{"empty_object":{},"empty_array":[],"xs":[1,"two",null,{"k":3.5},[]],"last":false}"#
    );
}

#[test]
fn keys_are_escaped_like_strings() {
    let mut w = JsonWriter::new();
    w.object(|w| {
        w.field("a\"\u{2}", 1u32);
    });
    assert_eq!(w.finish(), r#"{"a\"\u0002":1}"#);
}
