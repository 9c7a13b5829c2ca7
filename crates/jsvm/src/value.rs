//! Runtime values.

/// Built-in host objects reachable from globals.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum Builtin {
    /// `Math` — numeric functions and constants.
    Math,
    /// `console` — `log` output sink.
    Console,
    /// `performance` — `now()` high-resolution virtual timer (§3.3.2).
    Performance,
    /// `crypto` — W3C Web Cryptography API analogue (native SHA-256).
    Crypto,
    /// `String` — `fromCharCode`.
    StringCls,
    /// `Number` — `isInteger`, `MAX_SAFE_INTEGER`.
    NumberCls,
    /// `__wb` — embedder harness object through which compiled code built
    /// with trap checks raises wasm-parity traps (`div0`, `oob`). Not
    /// referenced by normal programs.
    WbHarness,
}

/// An internal MiniJS value. Heap data lives behind [`Value::Ref`].
#[derive(Debug, Clone, Copy, PartialEq)]
pub enum Value {
    /// IEEE double — the only JS number type.
    Num(f64),
    /// Boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// `undefined`.
    Undefined,
    /// Reference into the GC heap (arrays, objects, strings, typed arrays).
    Ref(u32),
    /// A function (chunk index); MiniJS closures capture globals only.
    Closure(u32),
    /// A built-in host object.
    Builtin(Builtin),
}

impl Value {
    /// JS truthiness (for `Ref`, any object is truthy; empty-string
    /// falsiness is handled by the VM, which can see the heap).
    pub fn truthy_shallow(&self) -> bool {
        match self {
            Value::Num(n) => *n != 0.0 && !n.is_nan(),
            Value::Bool(b) => *b,
            Value::Null | Value::Undefined => false,
            Value::Ref(_) | Value::Closure(_) | Value::Builtin(_) => true,
        }
    }

    /// The `typeof` string.
    pub fn type_of(&self) -> &'static str {
        match self {
            Value::Num(_) => "number",
            Value::Bool(_) => "boolean",
            Value::Null => "object",
            Value::Undefined => "undefined",
            Value::Ref(_) => "object", // the VM refines strings to "string"
            Value::Closure(_) => "function",
            Value::Builtin(_) => "object",
        }
    }
}

/// The public value type returned by [`crate::JsVm::call`] — owned data,
/// detached from the VM heap.
#[derive(Debug, Clone, PartialEq)]
pub enum JsValue {
    /// A number.
    Num(f64),
    /// A string.
    Str(String),
    /// A boolean.
    Bool(bool),
    /// `null`.
    Null,
    /// `undefined`.
    Undefined,
    /// An array, deep-copied out of the heap.
    Array(Vec<JsValue>),
}

impl JsValue {
    /// The numeric payload, if this is a number (test convenience).
    pub fn as_num(&self) -> Option<f64> {
        match self {
            JsValue::Num(n) => Some(*n),
            _ => None,
        }
    }
}

/// JS `Number::toString`: the shortest digits that read back as `n`,
/// laid out positionally when the decimal exponent `k` of the leading
/// digit is in `-7 < k < 21`, else as `d.ddde±k`; `-0` prints `"0"`.
pub fn format_number(n: f64) -> String {
    if n.is_nan() {
        return "NaN".into();
    }
    if n == 0.0 {
        return "0".into();
    }
    if n < 0.0 {
        return format!("-{}", format_number(-n));
    }
    if n.is_infinite() {
        return "Infinity".into();
    }
    // Rust's `{:e}` gives the shortest round-trip digits as `d.ddde<k>`.
    let sci = format!("{n:e}");
    let (mantissa, exp) = sci.split_once('e').unwrap_or((&sci, "0"));
    let digits: String = mantissa.chars().filter(|c| *c != '.').collect();
    let k: i32 = exp.parse().unwrap_or(0);
    // The digits fill the integer part up to the point at `k + 1`.
    let point = k + 1;
    let len = digits.len() as i32;
    match point {
        p if len <= p && p <= 21 => digits + &"0".repeat((p - len) as usize),
        p if 0 < p && p <= 21 => format!("{}.{}", &digits[..p as usize], &digits[p as usize..]),
        p if -6 < p && p <= 0 => format!("0.{}{digits}", "0".repeat(-p as usize)),
        _ => {
            let sign = if k < 0 { '-' } else { '+' };
            let (lead, rest) = digits.split_at(1);
            let dot = if rest.is_empty() { "" } else { "." };
            format!("{lead}{dot}{rest}e{sign}{}", k.abs())
        }
    }
}

/// JS `StringToNumber`: the string less the JS white space and line
/// terminators around it (U+FEFF is one, U+0085 is not) is empty (0),
/// an unsigned `0x`/`0o`/`0b` integer in either case, `Infinity` with an
/// optional sign, or a decimal literal; anything else is NaN.
pub fn string_to_number(s: &str) -> f64 {
    const JS_SPACE: [char; 14] = [
        '\t', '\n', '\u{b}', '\u{c}', '\r', ' ', '\u{a0}', '\u{1680}', '\u{2028}', '\u{2029}',
        '\u{202f}', '\u{205f}', '\u{3000}', '\u{feff}',
    ];
    let js_space = |c: char| JS_SPACE.contains(&c) || ('\u{2000}'..='\u{200a}').contains(&c);
    let t = s.trim_matches(js_space);
    let radix = match t.get(..2) {
        Some("0x" | "0X") => 16,
        Some("0o" | "0O") => 8,
        Some("0b" | "0B") => 2,
        _ => 10,
    };
    let unsigned = t.strip_prefix(['+', '-']).unwrap_or(t);
    match unsigned {
        "" if t.is_empty() => 0.0,
        "Infinity" if t.starts_with('-') => f64::NEG_INFINITY,
        "Infinity" => f64::INFINITY,
        _ if radix != 10 => radix_integer(&t[2..], radix).unwrap_or(f64::NAN),
        // Past the names Rust also reads (`inf`, `NaN`, ...), Rust's
        // float grammar is JS's decimal literal.
        u if u.starts_with(|c: char| c.is_ascii_alphabetic()) => f64::NAN,
        _ => t.parse().unwrap_or(f64::NAN),
    }
}

/// The nonempty `digits` in a power-of-two `radix` as the nearest double,
/// ties to even: the first 125 or so bits exactly, the rest as a sticky
/// bit that only breaks a tie. `None` on a digit outside the radix.
fn radix_integer(digits: &str, radix: u32) -> Option<f64> {
    let bits = radix.trailing_zeros();
    let (mut mantissa, mut exponent, mut sticky) = (0u128, 0, false);
    for c in digits.chars() {
        let d = u128::from(c.to_digit(radix)?);
        if mantissa >> (128 - bits) == 0 {
            mantissa = mantissa << bits | d;
        } else {
            exponent += bits as i32;
            sticky |= d != 0;
        }
    }
    let value = (mantissa | u128::from(sticky)) as f64 * 2f64.powi(exponent);
    (!digits.is_empty()).then_some(value)
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn truthiness() {
        assert!(!Value::Num(0.0).truthy_shallow());
        assert!(!Value::Num(f64::NAN).truthy_shallow());
        assert!(Value::Num(-1.0).truthy_shallow());
        assert!(!Value::Null.truthy_shallow());
        assert!(!Value::Undefined.truthy_shallow());
        assert!(Value::Ref(0).truthy_shallow());
    }

    #[test]
    fn number_formatting() {
        assert_eq!(format_number(3.0), "3");
        assert_eq!(format_number(-0.5), "-0.5");
        assert_eq!(format_number(f64::NAN), "NaN");
        assert_eq!(format_number(1e22), "1e+22");
        assert_eq!(format_number(-0.0), "0");
        assert_eq!(format_number(0.1), "0.1");
        assert_eq!(format_number(123.456), "123.456");
        assert_eq!(format_number(1e-6), "0.000001");
        assert_eq!(format_number(1.5e22), "1.5e+22");
        assert_eq!(format_number(1e21), "1e+21");
        // Past 2^63 an integer does not fit an i64, and below 1e-6 JS
        // switches to the exponent form.
        assert_eq!(format_number(1e20), "100000000000000000000");
        assert_eq!(format_number(-1e20), "-100000000000000000000");
        assert_eq!(format_number(2f64.powi(64)), "18446744073709552000");
        assert_eq!(format_number(1e-7), "1e-7");
        assert_eq!(format_number(1.5e-10), "1.5e-10");
        assert_eq!(format_number(123e-20), "1.23e-18");
        assert_eq!(format_number(f64::NEG_INFINITY), "-Infinity");
        assert_eq!(format_number(9007199254740993.0), "9007199254740992");
    }

    #[test]
    fn typeof_strings() {
        assert_eq!(Value::Num(1.0).type_of(), "number");
        assert_eq!(Value::Closure(0).type_of(), "function");
        assert_eq!(Value::Undefined.type_of(), "undefined");
    }
}
