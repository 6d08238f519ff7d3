//! Scalar functions: built-ins and user-defined functions (UDFs).
//!
//! The paper's Figure 14 experiment measures the overhead of calling a UDF
//! versus an equivalent built-in. DB2 evaluates UDFs through a call
//! interface that marshals SQL arguments into the function's address space
//! (and, in `FENCED` mode, into a *separate process'* address space). This
//! module reproduces that cost structure honestly:
//!
//! * [`CallPath::Builtin`] — the function pointer is called directly on
//!   borrowed [`Value`]s.
//! * [`CallPath::Udf`] — arguments are serialized into a call buffer with
//!   the tuple codec, deserialized on the callee side, the result is
//!   serialized back and deserialized by the caller — the copy-in/copy-out
//!   a real UDF ABI performs. `FENCED` mode doubles the copies (simulating
//!   the IPC hop); the paper runs `NOT FENCED`, the default here.
//!
//! The XADT methods (`getElm`, `findKeyInElm`, `getElmIndex`, `xtext`) are
//! registered as UDFs exactly as the paper implemented them in DB2.

use std::collections::HashMap;
use std::sync::Arc;

use xadt::XadtValue;

use crate::error::{DbError, Result};
use crate::metrics::{count, UdfCounters};
use crate::tuple::{decode_row, encode_row, encode_value};
use crate::types::Value;

/// How a function call crosses from the executor into the function body.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum CallPath {
    /// Direct call — a native built-in.
    Builtin,
    /// UDF call convention: arguments and result are marshalled through a
    /// call buffer. `fenced` adds a second round of copies, modelling the
    /// separate-address-space `FENCED` mode of DB2.
    Udf {
        /// Whether to simulate the FENCED (out-of-process) mode.
        fenced: bool,
    },
}

/// The native implementation signature.
pub type ScalarImpl = fn(&[Value]) -> Result<Value>;

/// A registered scalar function.
pub struct FunctionDef {
    /// Function name (matched case-insensitively).
    pub name: String,
    /// Implementation.
    pub imp: ScalarImpl,
    /// Call convention.
    pub path: CallPath,
    /// Accepted argument counts (inclusive range).
    pub arity: (usize, usize),
    /// Where a [`crate::metrics::Counters`] set counts this function's
    /// calls (failed ones too) and bytes copied through the UDF call
    /// buffer (FENCED mode's second copy included; 0 for built-ins).
    slot: usize,
}

impl FunctionDef {
    /// Invoke the function through its call path.
    pub fn call(&self, args: &[Value]) -> Result<Value> {
        if args.len() < self.arity.0 || args.len() > self.arity.1 {
            return Err(DbError::Exec(format!(
                "{}: expected {}..={} arguments, got {}",
                self.name,
                self.arity.0,
                self.arity.1,
                args.len()
            )));
        }
        count(|c| c.udf(self.slot)[0] += 1);
        match self.path {
            CallPath::Builtin => (self.imp)(args),
            CallPath::Udf { fenced } => {
                // Copy-in: scalar arguments are marshalled through the
                // call buffer. XADT (LOB) arguments are passed by
                // *locator* — a cheap handle, no payload copy — exactly
                // as DB2 hands LOBs to NOT FENCED UDFs. FENCED mode runs
                // a second buffer copy, modelling the IPC hop.
                let mut buf = Vec::new();
                for a in args {
                    match a {
                        Value::Xadt(_) => encode_value(&Value::Null, &mut buf), // placeholder slot
                        scalar => encode_value(scalar, &mut buf),
                    }
                }
                let copies = if fenced { 2 } else { 1 };
                count(|c| c.udf(self.slot)[1] += copies * buf.len() as u64);
                let buf = if fenced { buf.clone() } else { buf };
                let mut callee_args = decode_row(&buf, args.len())?;
                for (slot, a) in callee_args.iter_mut().zip(args) {
                    if matches!(a, Value::Xadt(_)) {
                        *slot = a.clone(); // Arc bump only
                    }
                }
                // The function body runs on its own copies / locators.
                let result = (self.imp)(&callee_args)?;
                // Copy-out: scalar results marshal back; XADT results
                // return by locator.
                if matches!(result, Value::Xadt(_)) {
                    return Ok(result);
                }
                let mut rbuf = Vec::new();
                encode_row(std::slice::from_ref(&result), &mut rbuf);
                count(|c| c.udf(self.slot)[1] += copies * rbuf.len() as u64);
                let rbuf = if fenced { rbuf.clone() } else { rbuf };
                let mut row = decode_row(&rbuf, 1)?;
                Ok(row.pop().expect("one result"))
            }
        }
    }
}

/// The function registry of a database.
pub struct FunctionRegistry {
    map: HashMap<String, Arc<FunctionDef>>,
}

impl Default for FunctionRegistry {
    fn default() -> Self {
        Self::with_builtins()
    }
}

impl FunctionRegistry {
    /// An empty registry.
    pub fn new() -> FunctionRegistry {
        FunctionRegistry { map: HashMap::new() }
    }

    /// The standard registry: string built-ins, their UDF twins (for the
    /// Figure 14 experiment), and the XADT methods as NOT FENCED UDFs.
    pub fn with_builtins() -> FunctionRegistry {
        let mut r = FunctionRegistry::new();
        r.register("length", fn_length, CallPath::Builtin, (1, 1));
        r.register("substr", fn_substr, CallPath::Builtin, (2, 3));
        r.register("upper", fn_upper, CallPath::Builtin, (1, 1));
        r.register("lower", fn_lower, CallPath::Builtin, (1, 1));
        // UDF twins of the built-ins (paper §4.4, queries QT1/QT2).
        r.register("udf_length", fn_length, CallPath::Udf { fenced: false }, (1, 1));
        r.register("udf_substr", fn_substr, CallPath::Udf { fenced: false }, (2, 3));
        r.register("fenced_length", fn_length, CallPath::Udf { fenced: true }, (1, 1));
        r.register("fenced_substr", fn_substr, CallPath::Udf { fenced: true }, (2, 3));
        // XADT methods — UDFs, as implemented in DB2 by the paper.
        r.register("getElm", fn_get_elm, CallPath::Udf { fenced: false }, (4, 5));
        r.register("findKeyInElm", fn_find_key, CallPath::Udf { fenced: false }, (3, 3));
        r.register("getElmIndex", fn_get_elm_index, CallPath::Udf { fenced: false }, (5, 5));
        r.register("xtext", fn_xtext, CallPath::Udf { fenced: false }, (1, 1));
        r.register("countElm", fn_count_elm, CallPath::Udf { fenced: false }, (2, 2));
        r.register("getAttr", fn_get_attr, CallPath::Udf { fenced: false }, (3, 3));
        // Built-in twins of the XADT methods (ablation: "if the database
        // vendors implemented the XADT as a native data type…", §5).
        r.register("native_getElm", fn_get_elm, CallPath::Builtin, (4, 5));
        r.register("native_findKeyInElm", fn_find_key, CallPath::Builtin, (3, 3));
        r.register("native_getElmIndex", fn_get_elm_index, CallPath::Builtin, (5, 5));
        r.register("native_xtext", fn_xtext, CallPath::Builtin, (1, 1));
        r
    }

    /// Register (or replace) a function. A replacement keeps the slot,
    /// and so the counters, of the function it replaces.
    pub fn register(&mut self, name: &str, imp: ScalarImpl, path: CallPath, arity: (usize, usize)) {
        let key = name.to_ascii_lowercase();
        let slot = self.map.get(&key).map_or(self.map.len(), |d| d.slot);
        self.map
            .insert(key, Arc::new(FunctionDef { name: name.to_string(), imp, path, arity, slot }));
    }

    /// Look up a function (case-insensitive).
    pub fn get(&self, name: &str) -> Option<Arc<FunctionDef>> {
        self.map.get(&name.to_ascii_lowercase()).cloned()
    }

    /// Every registered function's `[calls, marshalled bytes]` pair in
    /// `udfs` (a [`crate::metrics::Counters::udfs`] list), named and
    /// sorted by name.
    pub fn counters(&self, udfs: &[[u64; 2]]) -> Vec<UdfCounters> {
        let mut out: Vec<UdfCounters> = self
            .map
            .values()
            .map(|d| {
                let [calls, marshalled_bytes] = udfs.get(d.slot).copied().unwrap_or_default();
                UdfCounters { name: d.name.clone(), calls, marshalled_bytes }
            })
            .collect();
        out.sort_by(|a, b| a.name.cmp(&b.name));
        out
    }
}

// ---- implementations ---------------------------------------------------

fn str_arg<'a>(args: &'a [Value], i: usize, f: &str) -> Result<&'a str> {
    match &args[i] {
        Value::Str(s) => Ok(s),
        other => Err(DbError::Exec(format!("{f}: argument {i} must be VARCHAR, got {other:?}"))),
    }
}

fn int_arg(args: &[Value], i: usize, f: &str) -> Result<i64> {
    match &args[i] {
        Value::Int(v) => Ok(*v),
        other => Err(DbError::Exec(format!("{f}: argument {i} must be INTEGER, got {other:?}"))),
    }
}

fn xadt_arg<'a>(args: &'a [Value], i: usize, f: &str) -> Result<&'a XadtValue> {
    match &args[i] {
        Value::Xadt(x) => Ok(x),
        other => Err(DbError::Exec(format!("{f}: argument {i} must be XADT, got {other:?}"))),
    }
}

fn fn_length(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    Ok(Value::Int(str_arg(args, 0, "length")?.len() as i64))
}

/// `substr(s, start [, len])` with SQL's 1-based `start`.
fn fn_substr(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    let s = str_arg(args, 0, "substr")?;
    let start = int_arg(args, 1, "substr")?.max(1) as usize - 1;
    let start = start.min(s.len());
    let end = if args.len() == 3 {
        (start + int_arg(args, 2, "substr")?.max(0) as usize).min(s.len())
    } else {
        s.len()
    };
    // Snap to char boundaries to stay panic-free on multi-byte text.
    let start = floor_char_boundary(s, start);
    let end = floor_char_boundary(s, end);
    Ok(Value::str(&s[start..end.max(start)]))
}

fn floor_char_boundary(s: &str, mut i: usize) -> usize {
    i = i.min(s.len());
    while i > 0 && !s.is_char_boundary(i) {
        i -= 1;
    }
    i
}

fn fn_upper(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    Ok(Value::str(str_arg(args, 0, "upper")?.to_uppercase()))
}

fn fn_lower(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    Ok(Value::str(str_arg(args, 0, "lower")?.to_lowercase()))
}

/// `getElm(xadt, rootElm, searchElm, searchKey [, level])`.
fn fn_get_elm(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    let input = xadt_arg(args, 0, "getElm")?;
    let root = str_arg(args, 1, "getElm")?;
    let search = str_arg(args, 2, "getElm")?;
    let key = str_arg(args, 3, "getElm")?;
    let level = if args.len() == 5 {
        let l = int_arg(args, 4, "getElm")?;
        if l < 0 {
            None
        } else {
            Some(l as u32)
        }
    } else {
        None
    };
    Ok(Value::Xadt(xadt::get_elm(input, root, search, key, level)?))
}

/// `findKeyInElm(xadt, searchElm, searchKey)` → 1 or 0.
fn fn_find_key(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Int(0));
    }
    let input = xadt_arg(args, 0, "findKeyInElm")?;
    let elm = str_arg(args, 1, "findKeyInElm")?;
    let key = str_arg(args, 2, "findKeyInElm")?;
    Ok(Value::Int(i64::from(xadt::find_key_in_elm(input, elm, key)?)))
}

/// `getElmIndex(xadt, parentElm, childElm, startPos, endPos)`.
fn fn_get_elm_index(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    let input = xadt_arg(args, 0, "getElmIndex")?;
    let parent = str_arg(args, 1, "getElmIndex")?;
    let child = str_arg(args, 2, "getElmIndex")?;
    let start = int_arg(args, 3, "getElmIndex")?.max(0) as u32;
    let end = int_arg(args, 4, "getElmIndex")?.max(0) as u32;
    Ok(Value::Xadt(xadt::get_elm_index(input, parent, child, start, end)?))
}

/// `countElm(xadt, elm)` — number of `elm` elements in the fragment.
fn fn_count_elm(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Int(0));
    }
    let input = xadt_arg(args, 0, "countElm")?;
    let elm = str_arg(args, 1, "countElm")?;
    Ok(Value::Int(xadt::count_elm(input, elm)?))
}

/// `getAttr(xadt, elm, attr)` — attribute of the first matching element.
fn fn_get_attr(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    let input = xadt_arg(args, 0, "getAttr")?;
    let elm = str_arg(args, 1, "getAttr")?;
    let attr = str_arg(args, 2, "getAttr")?;
    Ok(match xadt::get_attr(input, elm, attr)? {
        Some(v) => Value::Str(v),
        None => Value::Null,
    })
}

/// `xtext(xadt)` — concatenated text content.
fn fn_xtext(args: &[Value]) -> Result<Value> {
    if args[0].is_null() {
        return Ok(Value::Null);
    }
    let input = xadt_arg(args, 0, "xtext")?;
    Ok(Value::str(xadt::text_content(input)?))
}

#[cfg(test)]
mod tests {
    use super::*;

    fn reg() -> FunctionRegistry {
        FunctionRegistry::with_builtins()
    }

    #[test]
    fn builtin_and_udf_agree() {
        let r = reg();
        let args = [Value::str("HAMLET, Prince of Denmark")];
        let b = r.get("length").unwrap().call(&args).unwrap();
        let u = r.get("udf_length").unwrap().call(&args).unwrap();
        let f = r.get("fenced_length").unwrap().call(&args).unwrap();
        assert_eq!(b, Value::Int(25));
        assert_eq!(b, u);
        assert_eq!(b, f);
    }

    #[test]
    fn substr_semantics() {
        let r = reg();
        let f = r.get("substr").unwrap();
        assert_eq!(f.call(&[Value::str("HAMLET"), Value::Int(5)]).unwrap(), Value::str("ET"));
        assert_eq!(
            f.call(&[Value::str("HAMLET"), Value::Int(2), Value::Int(3)]).unwrap(),
            Value::str("AML")
        );
        assert_eq!(f.call(&[Value::str("ab"), Value::Int(9)]).unwrap(), Value::str(""));
    }

    #[test]
    fn arity_checked() {
        let r = reg();
        assert!(r.get("length").unwrap().call(&[]).is_err());
        assert!(r.get("findKeyInElm").unwrap().call(&[Value::str("a"), Value::str("b")]).is_err());
    }

    #[test]
    fn get_elm_through_registry() {
        let r = reg();
        let frag = Value::Xadt(XadtValue::plain("<LINE>my friend</LINE><LINE>foe</LINE>"));
        let out = r
            .get("getelm") // case-insensitive
            .unwrap()
            .call(&[frag, Value::str("LINE"), Value::str("LINE"), Value::str("friend")])
            .unwrap();
        assert_eq!(out.as_xadt().unwrap().to_plain(), "<LINE>my friend</LINE>");
    }

    #[test]
    fn find_key_returns_int_flag() {
        let r = reg();
        let frag = Value::Xadt(XadtValue::plain("<SPEAKER>HAMLET</SPEAKER>"));
        let hit = r
            .get("findKeyInElm")
            .unwrap()
            .call(&[frag.clone(), Value::str("SPEAKER"), Value::str("HAMLET")])
            .unwrap();
        assert_eq!(hit, Value::Int(1));
        let miss = r
            .get("findKeyInElm")
            .unwrap()
            .call(&[frag, Value::str("SPEAKER"), Value::str("OPHELIA")])
            .unwrap();
        assert_eq!(miss, Value::Int(0));
    }

    #[test]
    fn get_elm_index_through_registry() {
        let r = reg();
        let frag = Value::Xadt(XadtValue::plain("<L>1</L><L>2</L><L>3</L>"));
        let out = r
            .get("getElmIndex")
            .unwrap()
            .call(&[frag, Value::str(""), Value::str("L"), Value::Int(2), Value::Int(2)])
            .unwrap();
        assert_eq!(out.as_xadt().unwrap().to_plain(), "<L>2</L>");
    }

    #[test]
    fn nulls_propagate() {
        let r = reg();
        assert_eq!(r.get("length").unwrap().call(&[Value::Null]).unwrap(), Value::Null);
        assert_eq!(
            r.get("findKeyInElm")
                .unwrap()
                .call(&[Value::Null, Value::str("a"), Value::str("b")])
                .unwrap(),
            Value::Int(0)
        );
    }

    #[test]
    fn xtext_extracts_content() {
        let r = reg();
        let frag = Value::Xadt(XadtValue::plain("<author>A. B.</author>"));
        assert_eq!(r.get("xtext").unwrap().call(&[frag]).unwrap(), Value::str("A. B."));
    }

    #[test]
    fn udf_path_marshals_xadt_values() {
        let r = reg();
        let frag = Value::Xadt(XadtValue::compressed("<a>x</a><a>y</a>").unwrap());
        let out = r
            .get("getElm")
            .unwrap()
            .call(&[frag, Value::str("a"), Value::str(""), Value::str("")])
            .unwrap();
        assert_eq!(out.as_xadt().unwrap().to_plain(), "<a>x</a><a>y</a>");
    }

    /// The modelled UDF ABI, pinned per call: every scalar argument and
    /// scalar result crosses the call buffer once (`tag + payload`, strings
    /// with a 4-byte length), an XADT argument is a 1-byte placeholder and
    /// an XADT result costs nothing (both travel by locator), FENCED pays
    /// twice, built-ins pay nothing.
    #[test]
    fn marshalled_bytes_per_call_are_pinned() {
        let r = reg();
        let marshalled = |name: &str, args: &[Value]| {
            let count = || {
                let counters = r.counters(&crate::metrics::thread_counters().udfs);
                let c = counters.iter().find(|c| c.name == name).expect("registered");
                (c.calls, c.marshalled_bytes)
            };
            let before = count();
            r.get(name).unwrap().call(args).unwrap();
            let after = count();
            assert_eq!(after.0 - before.0, 1, "{name}: one call counted");
            after.1 - before.1
        };
        let line = Value::Xadt(XadtValue::plain("<LINE>my friend</LINE>"));
        let title = [Value::str("HAMLET, Prince of Denmark")]; // 25 bytes
        let get_elm_args =
            [line.clone(), Value::str("LINE"), Value::str("LINE"), Value::str("friend")];
        assert_eq!(marshalled("getElm", &get_elm_args), 1 + (5 + 4) + (5 + 4) + (5 + 6));
        assert_eq!(marshalled("xtext", &[line]), 1 + (5 + 9));
        assert_eq!(marshalled("udf_length", &title), (5 + 25) + 9);
        assert_eq!(marshalled("fenced_length", &title), 2 * ((5 + 25) + 9));
        assert_eq!(marshalled("length", &title), 0);
        assert_eq!(marshalled("native_getElm", &get_elm_args), 0);
    }
}
