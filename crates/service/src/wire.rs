//! The `routed` wire protocol: line-delimited JSON, hand-parsed.
//!
//! One request is one line, one response is one line. The daemon speaks
//! four verbs:
//!
//! ```text
//! {"verb":"route","router":"satmap","device":"tokyo",
//!  "circuit":[["h",0],["cx",0,1],["rzz",1,2,0.25]],
//!  "qubits":3,"budget_ms":2000,
//!  "strategy":"linear","slicing":"default","swaps_per_gap":1}
//! {"verb":"abort","request_id":7}
//! {"verb":"stats"}
//! {"verb":"drain"}
//! ```
//!
//! Gates are `[mnemonic, operands..., param?]` arrays using the OpenQASM
//! mnemonics the circuit IR round-trips through ([`OneQubitKind`] /
//! [`TwoQubitKind`]); parameterized kinds (`rx`, `ry`, `rz`, `rzz`)
//! require the trailing angle, the rest forbid it. `qubits` is optional —
//! omitted, the width is inferred as the highest operand plus one. The
//! only objective over the wire is swap-count (the paper's main mode);
//! fidelity routing needs a noise model and stays a library-level call.
//!
//! A `route` line may carry an OpenQASM 2.0 program instead of a gate
//! list: `"qasm":"OPENQASM 2.0;\nqreg q[2];\ncx q[0],q[1];\n"`. Exactly
//! one of `circuit` / `qasm` is required, and `qubits` is rejected next
//! to `qasm` — the program's `qreg` declaration already fixes the width.
//! Parse failures come back as a typed [`WireError`] naming the source
//! line, which converts to [`RouteError::InvalidRequest`] like every
//! other wire fault.
//!
//! The parser is deliberately hand-rolled over `std` (the workspace is
//! offline: no serde) and *strict*: unknown verbs, unknown keys on a
//! `route` line, wrong arities, bad mnemonics, and malformed JSON all
//! fail with a typed [`WireError`] that names the offending byte offset
//! or key. [`WireError`] converts into
//! [`RouteError::InvalidRequest`], so one error channel serves both the
//! wire and the routing layers.

use circuit::{
    Circuit, Gate, OneQubitKind, Qubit, RepeatedStructure, RouteError, RouteSpec, SearchStrategy,
    Slicing, TwoQubitKind,
};
use std::time::Duration;

use crate::catalog;

/// Maximum nesting depth [`parse_json`] accepts — requests are flat
/// (an object holding arrays of scalars), so anything deeper is garbage,
/// not a bigger circuit.
const MAX_DEPTH: usize = 16;

/// A typed wire-level failure: malformed JSON, a bad verb, a missing or
/// mistyped key, an unknown gate mnemonic or device name.
#[derive(Clone, Debug, PartialEq, Eq)]
pub struct WireError {
    why: String,
}

impl WireError {
    /// A new error with the given explanation.
    pub fn new(why: impl Into<String>) -> Self {
        WireError { why: why.into() }
    }

    /// The explanation.
    pub fn why(&self) -> &str {
        &self.why
    }
}

impl std::fmt::Display for WireError {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        write!(f, "wire: {}", self.why)
    }
}

impl std::error::Error for WireError {}

impl From<WireError> for RouteError {
    fn from(e: WireError) -> Self {
        RouteError::InvalidRequest(e.to_string())
    }
}

/// A parsed JSON value. Objects keep insertion order in a flat vector —
/// request lines are small, so linear key lookup beats a map.
#[derive(Clone, Debug, PartialEq)]
pub enum JsonValue {
    /// `null`.
    Null,
    /// `true` / `false`.
    Bool(bool),
    /// Any JSON number (integers are exact up to 2^53).
    Number(f64),
    /// A string, unescaped.
    String(String),
    /// An array.
    Array(Vec<JsonValue>),
    /// An object, as `(key, value)` pairs in source order.
    Object(Vec<(String, JsonValue)>),
}

impl JsonValue {
    /// Lowercase name of the value's type, for error messages.
    pub fn kind(&self) -> &'static str {
        match self {
            JsonValue::Null => "null",
            JsonValue::Bool(_) => "bool",
            JsonValue::Number(_) => "number",
            JsonValue::String(_) => "string",
            JsonValue::Array(_) => "array",
            JsonValue::Object(_) => "object",
        }
    }

    /// The string payload, when this is a string.
    pub fn as_str(&self) -> Option<&str> {
        match self {
            JsonValue::String(s) => Some(s),
            _ => None,
        }
    }

    /// The numeric payload, when this is a number.
    pub fn as_f64(&self) -> Option<f64> {
        match self {
            JsonValue::Number(n) => Some(*n),
            _ => None,
        }
    }

    /// The payload as a non-negative integer, when this is a number that
    /// is one (integral, in `0..=2^53`).
    pub fn as_u64(&self) -> Option<u64> {
        let n = self.as_f64()?;
        if n.fract() == 0.0 && (0.0..=9_007_199_254_740_992.0).contains(&n) {
            Some(n as u64)
        } else {
            None
        }
    }

    /// The boolean payload, when this is a bool.
    pub fn as_bool(&self) -> Option<bool> {
        match self {
            JsonValue::Bool(b) => Some(*b),
            _ => None,
        }
    }

    /// The elements, when this is an array.
    pub fn as_array(&self) -> Option<&[JsonValue]> {
        match self {
            JsonValue::Array(a) => Some(a),
            _ => None,
        }
    }

    /// Member lookup, when this is an object.
    pub fn get(&self, key: &str) -> Option<&JsonValue> {
        match self {
            JsonValue::Object(members) => members.iter().find(|(k, _)| k == key).map(|(_, v)| v),
            _ => None,
        }
    }

    /// True when this is `null`.
    pub fn is_null(&self) -> bool {
        matches!(self, JsonValue::Null)
    }
}

/// Parses one JSON document, strictly: the whole input must be consumed
/// (trailing whitespace aside), escapes must be valid, nesting is capped.
///
/// # Errors
///
/// [`WireError`] naming the byte offset of the first violation.
///
/// # Examples
///
/// ```
/// use service::wire::parse_json;
/// let v = parse_json(r#"{"verb":"stats","n":3}"#).unwrap();
/// assert_eq!(v.get("verb").and_then(|v| v.as_str()), Some("stats"));
/// assert_eq!(v.get("n").and_then(|v| v.as_u64()), Some(3));
/// assert!(parse_json("{oops}").is_err());
/// ```
pub fn parse_json(input: &str) -> Result<JsonValue, WireError> {
    let mut p = Parser {
        text: input,
        bytes: input.as_bytes(),
        pos: 0,
    };
    p.skip_ws();
    let value = p.value(0)?;
    p.skip_ws();
    if p.pos != p.bytes.len() {
        return Err(p.fail("trailing characters after the JSON value"));
    }
    Ok(value)
}

struct Parser<'a> {
    text: &'a str,
    bytes: &'a [u8],
    pos: usize,
}

impl Parser<'_> {
    fn fail(&self, why: &str) -> WireError {
        WireError::new(format!("{why} at byte {}", self.pos))
    }

    fn peek(&self) -> Option<u8> {
        self.bytes.get(self.pos).copied()
    }

    fn skip_ws(&mut self) {
        while matches!(self.peek(), Some(b' ' | b'\t' | b'\n' | b'\r')) {
            self.pos += 1;
        }
    }

    fn expect(&mut self, b: u8) -> Result<(), WireError> {
        if self.peek() == Some(b) {
            self.pos += 1;
            Ok(())
        } else {
            Err(self.fail(&format!("expected '{}'", b as char)))
        }
    }

    fn value(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        if depth > MAX_DEPTH {
            return Err(self.fail("nesting too deep"));
        }
        match self.peek() {
            Some(b'{') => self.object(depth),
            Some(b'[') => self.array(depth),
            Some(b'"') => Ok(JsonValue::String(self.string()?)),
            Some(b't') => self.literal("true", JsonValue::Bool(true)),
            Some(b'f') => self.literal("false", JsonValue::Bool(false)),
            Some(b'n') => self.literal("null", JsonValue::Null),
            Some(c) if c == b'-' || c.is_ascii_digit() => self.number(),
            _ => Err(self.fail("expected a JSON value")),
        }
    }

    fn literal(&mut self, word: &str, value: JsonValue) -> Result<JsonValue, WireError> {
        if self.bytes[self.pos..].starts_with(word.as_bytes()) {
            self.pos += word.len();
            Ok(value)
        } else {
            Err(self.fail(&format!("expected '{word}'")))
        }
    }

    fn object(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        self.expect(b'{')?;
        let mut members = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b'}') {
            self.pos += 1;
            return Ok(JsonValue::Object(members));
        }
        loop {
            self.skip_ws();
            let key = self.string()?;
            if members.iter().any(|(k, _)| *k == key) {
                return Err(self.fail(&format!("duplicate key '{key}'")));
            }
            self.skip_ws();
            self.expect(b':')?;
            self.skip_ws();
            let value = self.value(depth + 1)?;
            members.push((key, value));
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b'}') => {
                    self.pos += 1;
                    return Ok(JsonValue::Object(members));
                }
                _ => return Err(self.fail("expected ',' or '}' in object")),
            }
        }
    }

    fn array(&mut self, depth: usize) -> Result<JsonValue, WireError> {
        self.expect(b'[')?;
        let mut items = Vec::new();
        self.skip_ws();
        if self.peek() == Some(b']') {
            self.pos += 1;
            return Ok(JsonValue::Array(items));
        }
        loop {
            self.skip_ws();
            items.push(self.value(depth + 1)?);
            self.skip_ws();
            match self.peek() {
                Some(b',') => self.pos += 1,
                Some(b']') => {
                    self.pos += 1;
                    return Ok(JsonValue::Array(items));
                }
                _ => return Err(self.fail("expected ',' or ']' in array")),
            }
        }
    }

    fn string(&mut self) -> Result<String, WireError> {
        self.expect(b'"')?;
        let mut out = String::new();
        loop {
            match self.peek() {
                None => return Err(self.fail("unterminated string")),
                Some(b'"') => {
                    self.pos += 1;
                    return Ok(out);
                }
                Some(b'\\') => {
                    self.pos += 1;
                    out.push(self.escape()?);
                }
                Some(c) if c < 0x20 => {
                    return Err(self.fail("raw control character in string"));
                }
                Some(_) => {
                    // Copy the whole run of plain bytes at once. It ends
                    // at an ASCII byte or the end of input, so both ends
                    // are char boundaries of the `&str` input.
                    let start = self.pos;
                    while matches!(self.peek(), Some(c) if c != b'"' && c != b'\\' && c >= 0x20) {
                        self.pos += 1;
                    }
                    out.push_str(&self.text[start..self.pos]);
                }
            }
        }
    }

    fn escape(&mut self) -> Result<char, WireError> {
        let c = self
            .peek()
            .ok_or_else(|| self.fail("unterminated escape"))?;
        self.pos += 1;
        Ok(match c {
            b'"' => '"',
            b'\\' => '\\',
            b'/' => '/',
            b'b' => '\u{8}',
            b'f' => '\u{c}',
            b'n' => '\n',
            b'r' => '\r',
            b't' => '\t',
            b'u' => {
                let high = self.hex4()?;
                if (0xD800..0xDC00).contains(&high) {
                    // High surrogate: a low surrogate escape must follow.
                    if self.peek() == Some(b'\\') {
                        self.pos += 1;
                        self.expect(b'u')?;
                        let low = self.hex4()?;
                        if !(0xDC00..0xE000).contains(&low) {
                            return Err(self.fail("invalid low surrogate"));
                        }
                        let code = 0x10000 + ((high - 0xD800) << 10) + (low - 0xDC00);
                        char::from_u32(code).ok_or_else(|| self.fail("invalid surrogate pair"))?
                    } else {
                        return Err(self.fail("unpaired high surrogate"));
                    }
                } else if (0xDC00..0xE000).contains(&high) {
                    return Err(self.fail("unpaired low surrogate"));
                } else {
                    char::from_u32(high).ok_or_else(|| self.fail("invalid \\u escape"))?
                }
            }
            _ => return Err(self.fail("unknown escape")),
        })
    }

    fn hex4(&mut self) -> Result<u32, WireError> {
        let mut v = 0u32;
        for _ in 0..4 {
            let c = self
                .peek()
                .ok_or_else(|| self.fail("truncated \\u escape"))?;
            let digit = (c as char)
                .to_digit(16)
                .ok_or_else(|| self.fail("non-hex digit in \\u escape"))?;
            v = v * 16 + digit;
            self.pos += 1;
        }
        Ok(v)
    }

    fn number(&mut self) -> Result<JsonValue, WireError> {
        let start = self.pos;
        if self.peek() == Some(b'-') {
            self.pos += 1;
        }
        while matches!(self.peek(), Some(c) if c.is_ascii_digit() || matches!(c, b'.' | b'e' | b'E' | b'+' | b'-'))
        {
            self.pos += 1;
        }
        let text = std::str::from_utf8(&self.bytes[start..self.pos])
            .expect("ascii digits are valid utf-8");
        let n: f64 = text
            .parse()
            .map_err(|_| WireError::new(format!("invalid number '{text}' at byte {start}")))?;
        if !n.is_finite() {
            return Err(WireError::new(format!("non-finite number at byte {start}")));
        }
        Ok(JsonValue::Number(n))
    }
}

/// A fully decoded `route` line: which router, which device (by catalog
/// name, kept for logging), the gate list, and the per-request knobs.
#[derive(Clone, Debug)]
pub struct RouteCommand {
    /// Requested router name (aliases welcome; resolved by the registry).
    pub router: String,
    /// Catalog name the graph was built from.
    pub device: String,
    /// The decoded circuit.
    pub circuit: Circuit,
    /// The device connectivity graph, owned (built from the catalog).
    pub graph: arch::ConnectivityGraph,
    /// The per-request knobs (budget, strategy, slicing, …). The
    /// daemon stamps `request_id` after assigning one.
    pub spec: RouteSpec,
}

/// One parsed request line.
#[derive(Clone, Debug)]
pub enum Request {
    /// Route a circuit (the payload is boxed: it carries a whole circuit
    /// and device graph).
    Route(Box<RouteCommand>),
    /// Cancel the in-flight or queued request with this server-assigned
    /// id.
    Abort {
        /// The id the daemon acked the original `route` line with.
        request_id: u64,
    },
    /// Report daemon counters.
    Stats,
    /// Stop accepting work, finish what is queued, report, shut down.
    Drain,
}

const ROUTE_KEYS: &[&str] = &[
    "verb",
    "router",
    "device",
    "circuit",
    "qasm",
    "qubits",
    "budget_ms",
    "strategy",
    "slicing",
    "swaps_per_gap",
    "totalizer_units",
    "repetition",
];

/// Parses one request line.
///
/// # Errors
///
/// [`WireError`] on malformed JSON, an unknown verb, a missing/mistyped
/// key, an unknown gate mnemonic, a bad gate arity, or an unknown device.
///
/// # Examples
///
/// ```
/// use service::wire::{parse_request, Request};
/// let line = r#"{"verb":"route","router":"sabre","device":"linear:2",
///               "circuit":[["cx",0,1]]}"#.replace('\n', "");
/// match parse_request(&line).unwrap() {
///     Request::Route(cmd) => {
///         assert_eq!(cmd.router, "sabre");
///         assert_eq!(cmd.circuit.num_qubits(), 2);
///     }
///     other => panic!("expected route, got {other:?}"),
/// }
/// assert!(matches!(
///     parse_request(r#"{"verb":"stats"}"#).unwrap(),
///     Request::Stats
/// ));
/// ```
pub fn parse_request(line: &str) -> Result<Request, WireError> {
    let v = parse_json(line)?;
    if !matches!(v, JsonValue::Object(_)) {
        return Err(WireError::new(format!(
            "request must be a JSON object, got {}",
            v.kind()
        )));
    }
    let verb = require_str(&v, "verb")?;
    match verb {
        "route" => Ok(Request::Route(Box::new(parse_route(&v)?))),
        "abort" => Ok(Request::Abort {
            request_id: require_u64(&v, "request_id")?,
        }),
        "stats" => Ok(Request::Stats),
        "drain" => Ok(Request::Drain),
        other => Err(WireError::new(format!(
            "unknown verb '{other}' (expected route, abort, stats, or drain)"
        ))),
    }
}

fn parse_route(v: &JsonValue) -> Result<RouteCommand, WireError> {
    if let JsonValue::Object(members) = v {
        for (key, _) in members {
            if !ROUTE_KEYS.contains(&key.as_str()) {
                return Err(WireError::new(format!(
                    "unknown key '{key}' on a route line (allowed: {})",
                    ROUTE_KEYS.join(", ")
                )));
            }
        }
    }
    let router = require_str(v, "router")?.to_string();
    let device = require_str(v, "device")?.to_string();
    let graph = catalog::device(&device)?;
    let circuit = match (v.get("circuit"), v.get("qasm")) {
        (Some(_), Some(_)) => {
            return Err(WireError::new(
                "'circuit' and 'qasm' are mutually exclusive; send one payload",
            ))
        }
        (None, None) => {
            return Err(WireError::new(
                "missing payload: send 'circuit' (gate arrays) or 'qasm' (OpenQASM 2.0 source)",
            ))
        }
        (Some(gates_value), None) => {
            let gates = gates_value
                .as_array()
                .ok_or_else(|| WireError::new("'circuit' must be an array of gate arrays"))?
                .iter()
                .enumerate()
                .map(|(i, g)| parse_gate(g, i))
                .collect::<Result<Vec<Gate>, WireError>>()?;
            let width = gates
                .iter()
                .map(|g| match g {
                    Gate::One { qubit, .. } => qubit.0 + 1,
                    Gate::Two { a, b, .. } => a.0.max(b.0) + 1,
                })
                .max()
                .unwrap_or(0);
            let qubits = match optional_u64(v, "qubits")? {
                Some(n) => {
                    let n =
                        usize::try_from(n).map_err(|_| WireError::new("'qubits' out of range"))?;
                    if n < width {
                        return Err(WireError::new(format!(
                            "'qubits' is {n} but a gate touches qubit {}",
                            width - 1
                        )));
                    }
                    n
                }
                None => width,
            };
            let mut circuit = Circuit::new(qubits);
            for gate in gates {
                circuit.push(gate);
            }
            circuit
        }
        (None, Some(payload)) => {
            if v.get("qubits").is_some() {
                return Err(WireError::new(
                    "'qubits' cannot accompany 'qasm': the qreg declaration fixes the width",
                ));
            }
            let src = payload.as_str().ok_or_else(|| {
                WireError::new(format!(
                    "'qasm' must be a string of OpenQASM 2.0 source, got {}",
                    payload.kind()
                ))
            })?;
            circuit::qasm::parse(src).map_err(|e| WireError::new(e.to_string()))?
        }
    };

    let mut spec = RouteSpec::default();
    if let Some(ms) = optional_u64(v, "budget_ms")? {
        spec.budget = Duration::from_millis(ms).into();
    }
    spec.strategy = parse_strategy(v)?;
    spec.slicing = parse_slicing(v)?;
    if let Some(n) = optional_u64(v, "swaps_per_gap")? {
        spec.swaps_per_gap =
            Some(usize::try_from(n).map_err(|_| WireError::new("'swaps_per_gap' out of range"))?);
    }
    spec.totalizer_units = optional_u64(v, "totalizer_units")?;
    if let Some(rep) = v.get("repetition") {
        let prefix_len = require_u64(rep, "prefix_len")?;
        let cycles = require_u64(rep, "cycles")?;
        spec.repetition = Some(RepeatedStructure {
            prefix_len: usize::try_from(prefix_len)
                .map_err(|_| WireError::new("'prefix_len' out of range"))?,
            cycles: usize::try_from(cycles).map_err(|_| WireError::new("'cycles' out of range"))?,
        });
    }

    Ok(RouteCommand {
        router,
        device,
        circuit,
        graph,
        spec,
    })
}

fn parse_gate(v: &JsonValue, index: usize) -> Result<Gate, WireError> {
    let bad = |why: String| WireError::new(format!("gate {index}: {why}"));
    let items = v
        .as_array()
        .ok_or_else(|| bad(format!("must be an array, got {}", v.kind())))?;
    let mnemonic = items
        .first()
        .and_then(|m| m.as_str())
        .ok_or_else(|| bad("first element must be the mnemonic string".into()))?;
    let operand = |i: usize| -> Result<Qubit, WireError> {
        let q = items
            .get(i)
            .and_then(|q| q.as_u64())
            .ok_or_else(|| bad(format!("operand {i} must be a non-negative integer")))?;
        Ok(Qubit(
            usize::try_from(q).map_err(|_| bad(format!("operand {i} out of range")))?,
        ))
    };
    if let Some(kind) = one_qubit_kind(mnemonic) {
        let want = if kind.has_param() { 3 } else { 2 };
        if items.len() != want {
            return Err(bad(format!(
                "'{mnemonic}' takes {} element(s), got {}",
                want - 1,
                items.len() - 1
            )));
        }
        let param = if kind.has_param() {
            Some(
                items[2]
                    .as_f64()
                    .ok_or_else(|| bad("angle must be a number".into()))?,
            )
        } else {
            None
        };
        return Ok(Gate::One {
            kind,
            qubit: operand(1)?,
            param,
        });
    }
    if let Some(kind) = two_qubit_kind(mnemonic) {
        let want = if kind.has_param() { 4 } else { 3 };
        if items.len() != want {
            return Err(bad(format!(
                "'{mnemonic}' takes {} element(s), got {}",
                want - 1,
                items.len() - 1
            )));
        }
        let (a, b) = (operand(1)?, operand(2)?);
        if a == b {
            return Err(bad(format!("'{mnemonic}' operands must differ")));
        }
        let param = if kind.has_param() {
            Some(
                items[3]
                    .as_f64()
                    .ok_or_else(|| bad("angle must be a number".into()))?,
            )
        } else {
            None
        };
        return Ok(Gate::Two { kind, a, b, param });
    }
    Err(bad(format!("unknown mnemonic '{mnemonic}'")))
}

fn one_qubit_kind(name: &str) -> Option<OneQubitKind> {
    Some(match name {
        "h" => OneQubitKind::H,
        "x" => OneQubitKind::X,
        "y" => OneQubitKind::Y,
        "z" => OneQubitKind::Z,
        "s" => OneQubitKind::S,
        "sdg" => OneQubitKind::Sdg,
        "t" => OneQubitKind::T,
        "tdg" => OneQubitKind::Tdg,
        "rx" => OneQubitKind::Rx,
        "ry" => OneQubitKind::Ry,
        "rz" => OneQubitKind::Rz,
        _ => return None,
    })
}

fn two_qubit_kind(name: &str) -> Option<TwoQubitKind> {
    Some(match name {
        "cx" => TwoQubitKind::Cx,
        "cz" => TwoQubitKind::Cz,
        "rzz" => TwoQubitKind::Rzz,
        _ => return None,
    })
}

fn parse_strategy(v: &JsonValue) -> Result<SearchStrategy, WireError> {
    match v.get("strategy").map(|s| (s, s.as_str())) {
        None => Ok(SearchStrategy::default()),
        Some((_, Some("auto"))) => Ok(SearchStrategy::Auto),
        Some((_, Some("linear"))) => Ok(SearchStrategy::Linear),
        Some((_, Some("core-guided"))) => Ok(SearchStrategy::CoreGuided),
        Some(_) => Err(WireError::new(
            "'strategy' must be \"auto\", \"linear\", or \"core-guided\"",
        )),
    }
}

fn parse_slicing(v: &JsonValue) -> Result<Slicing, WireError> {
    match v.get("slicing") {
        None => Ok(Slicing::RouterDefault),
        Some(s) => match (s.as_str(), s.as_u64()) {
            (Some("default"), _) => Ok(Slicing::RouterDefault),
            (Some("monolithic"), _) => Ok(Slicing::Monolithic),
            (_, Some(n)) if n >= 1 => Ok(Slicing::Sliced(n as usize)),
            _ => Err(WireError::new(
                "'slicing' must be \"default\", \"monolithic\", or a slice size >= 1",
            )),
        },
    }
}

fn require_str<'v>(v: &'v JsonValue, key: &str) -> Result<&'v str, WireError> {
    let member = v
        .get(key)
        .ok_or_else(|| WireError::new(format!("missing key '{key}'")))?;
    member
        .as_str()
        .ok_or_else(|| WireError::new(format!("'{key}' must be a string, got {}", member.kind())))
}

fn require_u64(v: &JsonValue, key: &str) -> Result<u64, WireError> {
    optional_u64(v, key)?.ok_or_else(|| WireError::new(format!("missing key '{key}'")))
}

fn optional_u64(v: &JsonValue, key: &str) -> Result<Option<u64>, WireError> {
    match v.get(key) {
        None => Ok(None),
        Some(member) => member.as_u64().map(Some).ok_or_else(|| {
            WireError::new(format!(
                "'{key}' must be a non-negative integer, got {}",
                member.kind()
            ))
        }),
    }
}

/// Serializes a circuit as the wire's gate-array list (the inverse of
/// the `circuit` key parser).
pub fn gates_json(circuit: &Circuit) -> String {
    let mut out = String::from("[");
    for (i, gate) in circuit.gates().iter().enumerate() {
        if i > 0 {
            out.push(',');
        }
        match gate {
            Gate::One { kind, qubit, param } => {
                out.push_str(&format!("[\"{}\",{}", kind.qasm_name(), qubit.0));
                if let Some(theta) = param {
                    out.push_str(&format!(",{theta}"));
                }
                out.push(']');
            }
            Gate::Two { kind, a, b, param } => {
                out.push_str(&format!("[\"{}\",{},{}", kind.qasm_name(), a.0, b.0));
                if let Some(theta) = param {
                    out.push_str(&format!(",{theta}"));
                }
                out.push(']');
            }
        }
    }
    out.push(']');
    out
}

/// Builds a `route` request line. `knobs` are extra top-level members
/// appended verbatim as `"key":value` — the value must already be valid
/// JSON (`"2000"`, `"\"auto\""`).
pub fn route_line(
    router: &str,
    device: &str,
    circuit: &Circuit,
    knobs: &[(&str, String)],
) -> String {
    let mut line = format!(
        "{{\"verb\":\"route\",\"router\":\"{}\",\"device\":\"{}\",\"qubits\":{},\"circuit\":{}",
        circuit::escape_json(router),
        circuit::escape_json(device),
        circuit.num_qubits(),
        gates_json(circuit)
    );
    for (key, value) in knobs {
        line.push_str(&format!(",\"{key}\":{value}"));
    }
    line.push('}');
    line
}

/// Builds a `route` request line carrying an OpenQASM 2.0 program as the
/// payload instead of a gate-array list. `knobs` work as in
/// [`route_line`]; no `qubits` member is emitted — the program's `qreg`
/// declaration fixes the width.
pub fn qasm_route_line(router: &str, device: &str, qasm: &str, knobs: &[(&str, String)]) -> String {
    let mut line = format!(
        "{{\"verb\":\"route\",\"router\":\"{}\",\"device\":\"{}\",\"qasm\":\"{}\"",
        circuit::escape_json(router),
        circuit::escape_json(device),
        circuit::escape_json(qasm),
    );
    for (key, value) in knobs {
        line.push_str(&format!(",\"{key}\":{value}"));
    }
    line.push('}');
    line
}

/// Builds an `abort` request line.
pub fn abort_line(request_id: u64) -> String {
    format!("{{\"verb\":\"abort\",\"request_id\":{request_id}}}")
}

/// Builds a `stats` request line.
pub fn stats_line() -> String {
    "{\"verb\":\"stats\"}".to_string()
}

/// Builds a `drain` request line.
pub fn drain_line() -> String {
    "{\"verb\":\"drain\"}".to_string()
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parses_scalars_strings_arrays_objects() {
        assert_eq!(parse_json("null").unwrap(), JsonValue::Null);
        assert_eq!(parse_json("true").unwrap(), JsonValue::Bool(true));
        assert_eq!(parse_json("-2.5e1").unwrap(), JsonValue::Number(-25.0));
        assert_eq!(
            parse_json(r#""a\nb\u0041\u00e9""#).unwrap(),
            JsonValue::String("a\nbAé".into())
        );
        // Surrogate pair: U+1F600.
        assert_eq!(
            parse_json(r#""\ud83d\ude00""#).unwrap(),
            JsonValue::String("😀".into())
        );
        let v = parse_json(r#"{"a":[1,2],"b":{"c":null}}"#).unwrap();
        assert_eq!(v.get("a").unwrap().as_array().unwrap().len(), 2);
        assert!(v.get("b").unwrap().get("c").unwrap().is_null());
    }

    #[test]
    fn rejects_malformed_json() {
        for bad in [
            "",
            "{",
            "[1,]",
            "{\"a\":}",
            "{\"a\":1,\"a\":2}",
            "tru",
            "\"unterminated",
            "\"\\q\"",
            "\"\\ud83d\"",
            "1 2",
            "nan",
            "{\"a\":1}}",
        ] {
            assert!(parse_json(bad).is_err(), "{bad:?} must be rejected");
        }
        // Nesting bomb.
        let deep = "[".repeat(40) + &"]".repeat(40);
        assert!(parse_json(&deep).is_err());
    }

    #[test]
    fn strings_mix_plain_runs_multibyte_text_and_escapes() {
        let input = "\"plain é漢😀 \\u00e9\\u6f22 mid \\ud83d\\ude00\\n\\\"q\\\"\\\\ tail ascii\"";
        assert_eq!(
            parse_json(input).unwrap(),
            JsonValue::String("plain é漢😀 é漢 mid 😀\n\"q\"\\ tail ascii".into())
        );
        // Runs ending at the closing quote, at an escape, and empty runs.
        assert_eq!(
            parse_json(r#"["", "x", "\\", "é\t", "Ab"]"#).unwrap(),
            JsonValue::Array(
                ["", "x", "\\", "é\t", "Ab"]
                    .iter()
                    .map(|s| JsonValue::String((*s).into()))
                    .collect()
            )
        );
    }

    #[test]
    fn string_errors_keep_their_byte_offsets() {
        let err = |input: &str| parse_json(input).unwrap_err().why().to_string();
        assert_eq!(
            err("\"ab\u{1}c\""),
            "raw control character in string at byte 3"
        );
        // 'é' and '漢' take 2 and 3 bytes before the control byte.
        assert_eq!(
            err("{\"k\":\"é漢\n\"}"),
            "raw control character in string at byte 11"
        );
        assert_eq!(err("\"abc é"), "unterminated string at byte 7");
        assert_eq!(err("\"é\\q\""), "unknown escape at byte 5");
    }

    #[test]
    fn route_lines_over_a_megabyte_round_trip() {
        let mut c = Circuit::new(16);
        for k in 0..70_000 {
            let (a, b) = (k % 16, (k * 7 + 3) % 16);
            match k % 3 {
                0 => c.h(a),
                1 if a != b => c.cx(a, b),
                _ => c.rzz(a, (a + 1) % 16, k as f64 / 7.0),
            }
        }
        let line = route_line("sabre", "tokyo", &c, &[]);
        assert!(line.len() > 1 << 20, "line is {} bytes", line.len());
        let cmd = match parse_request(&line).unwrap() {
            Request::Route(cmd) => cmd,
            other => panic!("expected route, got {other:?}"),
        };
        assert_eq!(cmd.circuit, c);
    }

    #[test]
    fn numbers_convert_to_u64_only_when_integral() {
        assert_eq!(parse_json("7").unwrap().as_u64(), Some(7));
        assert_eq!(parse_json("7.5").unwrap().as_u64(), None);
        assert_eq!(parse_json("-1").unwrap().as_u64(), None);
    }

    /// Asserts that `line` is rejected for its strategy with an error
    /// listing every accepted strategy name.
    fn assert_strategy_rejected(line: &str) {
        let err = parse_request(line).unwrap_err().to_string();
        for name in ["\"auto\"", "\"linear\"", "\"core-guided\""] {
            assert!(err.contains(name), "{line} -> {err}");
        }
    }

    #[test]
    fn route_line_round_trips() {
        let mut c = Circuit::new(3);
        c.h(0);
        c.cx(0, 1);
        c.rzz(1, 2, 0.25);
        let line = route_line(
            "satmap",
            "linear:3",
            &c,
            &[
                ("budget_ms", "2000".into()),
                ("strategy", "\"core-guided\"".into()),
            ],
        );
        let cmd = match parse_request(&line).unwrap() {
            Request::Route(cmd) => cmd,
            other => panic!("expected route, got {other:?}"),
        };
        assert_eq!(cmd.router, "satmap");
        assert_eq!(cmd.device, "linear:3");
        assert_eq!(cmd.circuit.gates(), c.gates());
        assert_eq!(cmd.circuit.num_qubits(), 3);
        assert_eq!(cmd.graph.num_qubits(), 3);
        assert_eq!(cmd.spec.strategy, SearchStrategy::CoreGuided);
        assert_eq!(
            cmd.spec.budget.remaining_time(),
            Some(Duration::from_millis(2000))
        );
        // "race" is not a strategy name.
        assert_strategy_rejected(&route_line(
            "satmap",
            "linear:3",
            &c,
            &[("strategy", "\"race\"".into())],
        ));
    }

    #[test]
    fn verbs_parse_and_unknown_verbs_fail() {
        assert!(matches!(
            parse_request(&stats_line()).unwrap(),
            Request::Stats
        ));
        assert!(matches!(
            parse_request(&drain_line()).unwrap(),
            Request::Drain
        ));
        assert!(matches!(
            parse_request(&abort_line(9)).unwrap(),
            Request::Abort { request_id: 9 }
        ));
        let err = parse_request(r#"{"verb":"solve"}"#).unwrap_err();
        assert!(err.to_string().contains("unknown verb"), "{err}");
        assert!(parse_request("[]").is_err());
        assert!(parse_request(r#"{"router":"satmap"}"#).is_err());
    }

    #[test]
    fn route_rejects_unknown_keys_and_bad_gates() {
        let bad_key = r#"{"verb":"route","router":"sabre","device":"tokyo","circuit":[],"oops":1}"#;
        let err = parse_request(bad_key).unwrap_err();
        assert!(err.to_string().contains("unknown key 'oops'"), "{err}");

        for (line, needle) in [
            (
                r#"{"verb":"route","router":"sabre","device":"tokyo","circuit":[["qq",0]]}"#,
                "unknown mnemonic",
            ),
            (
                r#"{"verb":"route","router":"sabre","device":"tokyo","circuit":[["cx",0]]}"#,
                "'cx' takes 2",
            ),
            (
                r#"{"verb":"route","router":"sabre","device":"tokyo","circuit":[["h",0,0.5]]}"#,
                "'h' takes 1",
            ),
            (
                r#"{"verb":"route","router":"sabre","device":"tokyo","circuit":[["rx",0]]}"#,
                "'rx' takes 2",
            ),
            (
                r#"{"verb":"route","router":"sabre","device":"tokyo","circuit":[["cx",1,1]]}"#,
                "must differ",
            ),
            (
                r#"{"verb":"route","router":"sabre","device":"tokyo","circuit":[["cx",0,1]],"qubits":1}"#,
                "touches qubit 1",
            ),
            (
                r#"{"verb":"route","router":"sabre","device":"nowhere","circuit":[]}"#,
                "unknown device",
            ),
        ] {
            let err = parse_request(line).unwrap_err();
            assert!(err.to_string().contains(needle), "{line} -> {err}");
        }
    }

    #[test]
    fn qasm_route_line_round_trips() {
        let src = "OPENQASM 2.0;\ninclude \"qelib1.inc\";\nqreg q[3];\nh q[0];\ncx q[0],q[1];\nrzz(0.25) q[1],q[2];\n";
        let line = qasm_route_line(
            "satmap",
            "linear:3",
            src,
            &[
                ("strategy", "\"core-guided\"".into()),
                ("budget_ms", "500".into()),
            ],
        );
        let cmd = match parse_request(&line).unwrap() {
            Request::Route(cmd) => cmd,
            other => panic!("expected route, got {other:?}"),
        };
        assert_eq!(cmd.router, "satmap");
        assert_eq!(cmd.circuit.num_qubits(), 3);
        assert_eq!(cmd.circuit.gates().len(), 3);
        assert_eq!(cmd.spec.strategy, SearchStrategy::CoreGuided);
        // The same program decodes to the same gates as the gate-array wire form.
        let direct = circuit::qasm::parse(src).unwrap();
        assert_eq!(cmd.circuit.gates(), direct.gates());
        assert_strategy_rejected(&qasm_route_line(
            "satmap",
            "linear:3",
            src,
            &[("strategy", "\"race\"".into())],
        ));
    }

    #[test]
    fn qasm_payload_is_exclusive_and_typed() {
        let both = r#"{"verb":"route","router":"sabre","device":"linear:2","circuit":[["cx",0,1]],"qasm":"qreg q[2];"}"#;
        let err = parse_request(both).unwrap_err();
        assert!(err.to_string().contains("mutually exclusive"), "{err}");

        let neither = r#"{"verb":"route","router":"sabre","device":"linear:2"}"#;
        let err = parse_request(neither).unwrap_err();
        assert!(err.to_string().contains("missing payload"), "{err}");

        let with_qubits = r#"{"verb":"route","router":"sabre","device":"linear:2","qasm":"qreg q[2];","qubits":2}"#;
        let err = parse_request(with_qubits).unwrap_err();
        assert!(err.to_string().contains("'qubits'"), "{err}");

        let not_a_string = r#"{"verb":"route","router":"sabre","device":"linear:2","qasm":[1,2]}"#;
        let err = parse_request(not_a_string).unwrap_err();
        assert!(err.to_string().contains("must be a string"), "{err}");

        // Parse failures surface the offending source line and convert to
        // the routing layer's InvalidRequest.
        let bad_gate = qasm_route_line("sabre", "linear:2", "qreg q[2];\nccx q[0],q[1];\n", &[]);
        let err = parse_request(&bad_gate).unwrap_err();
        assert!(err.to_string().contains("line 2"), "{err}");
        let routed: RouteError = err.into();
        assert!(matches!(routed, RouteError::InvalidRequest(_)));
    }

    #[test]
    fn spec_knobs_decode() {
        let line = r#"{"verb":"route","router":"satmap","device":"linear:4",
            "circuit":[["cx",0,1],["cx",0,1]],"slicing":"monolithic",
            "swaps_per_gap":2,"totalizer_units":10,
            "repetition":{"prefix_len":0,"cycles":2}}"#
            .replace('\n', "");
        let cmd = match parse_request(&line).unwrap() {
            Request::Route(cmd) => cmd,
            other => panic!("expected route, got {other:?}"),
        };
        assert_eq!(cmd.spec.slicing, Slicing::Monolithic);
        assert_eq!(cmd.spec.swaps_per_gap, Some(2));
        assert_eq!(cmd.spec.totalizer_units, Some(10));
        assert_eq!(
            cmd.spec.repetition,
            Some(RepeatedStructure {
                prefix_len: 0,
                cycles: 2
            })
        );
        assert!(cmd.spec.request_id.is_none(), "ids are server-assigned");
    }

    #[test]
    fn parallelism_is_an_unknown_route_key() {
        // Requests carry no solver width: the key bounces like any other
        // unknown key.
        for value in ["2", "\"serial\"", "\"auto\""] {
            let line = format!(
                r#"{{"verb":"route","router":"satmap","device":"linear:4","circuit":[["cx",0,1]],"parallelism":{value}}}"#
            );
            let err = parse_request(&line).unwrap_err();
            assert!(
                err.to_string().contains("unknown key 'parallelism'"),
                "{err}"
            );
            let routed: RouteError = err.into();
            assert!(matches!(routed, RouteError::InvalidRequest(_)));
        }
    }

    #[test]
    fn wire_errors_convert_to_invalid_request() {
        let e: RouteError = WireError::new("boom").into();
        assert!(matches!(e, RouteError::InvalidRequest(why) if why.contains("boom")));
    }
}
