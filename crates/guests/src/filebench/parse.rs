//! Parser for the Filebench-style model language.
//!
//! Grammar (a faithful subset of Filebench's `.f` syntax):
//!
//! ```text
//! model      := (file_def | process_def)*
//! file_def   := "define" "file" attrs
//! process_def:= "define" "process" attrs "{" thread_def+ "}"
//! thread_def := "thread" attrs "{" flowop_def+ "}"
//! flowop_def := "flowop" kind attrs
//! kind       := "read" | "write" | "append" | "think"
//! attrs      := attr ("," attr)*
//! attr       := key "=" value | flag            (flags: random, sequential, sync)
//! value      := size (4k, 10g), duration (2ms, 100us), integer, or word
//! ```
//!
//! Comments run from `#` to end of line.

use super::spec::{
    AccessPattern, FileSpec, FlowopKind, FlowopSpec, ModelSpec, ProcessSpec, ThreadSpec,
};
use simkit::SimDuration;
use std::fmt;

/// Error produced when a model file does not parse.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ParseModelError {
    /// 1-based line of the failure.
    pub line: usize,
    /// Description.
    pub message: String,
}

impl fmt::Display for ParseModelError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "model parse error at line {}: {}",
            self.line, self.message
        )
    }
}

impl std::error::Error for ParseModelError {}

#[derive(Debug, Clone, PartialEq)]
enum Tok {
    Word(String),
    Eq,
    Comma,
    LBrace,
    RBrace,
}

struct Lexer {
    toks: Vec<(usize, Tok)>,
    pos: usize,
}

impl Lexer {
    fn new(text: &str) -> Self {
        let mut toks = Vec::new();
        for (lineno, raw) in text.lines().enumerate() {
            let line = raw.split('#').next().unwrap_or("");
            let mut word = String::new();
            let lineno = lineno + 1;
            let flush = |word: &mut String, toks: &mut Vec<(usize, Tok)>| {
                if !word.is_empty() {
                    toks.push((lineno, Tok::Word(std::mem::take(word))));
                }
            };
            for c in line.chars() {
                match c {
                    '=' => {
                        flush(&mut word, &mut toks);
                        toks.push((lineno, Tok::Eq));
                    }
                    ',' => {
                        flush(&mut word, &mut toks);
                        toks.push((lineno, Tok::Comma));
                    }
                    '{' => {
                        flush(&mut word, &mut toks);
                        toks.push((lineno, Tok::LBrace));
                    }
                    '}' => {
                        flush(&mut word, &mut toks);
                        toks.push((lineno, Tok::RBrace));
                    }
                    c if c.is_whitespace() => flush(&mut word, &mut toks),
                    c => word.push(c),
                }
            }
            flush(&mut word, &mut toks);
        }
        Lexer { toks, pos: 0 }
    }

    fn peek(&self) -> Option<&Tok> {
        self.toks.get(self.pos).map(|(_, t)| t)
    }

    fn line(&self) -> usize {
        self.toks
            .get(self.pos.min(self.toks.len().saturating_sub(1)))
            .map_or(0, |(l, _)| *l)
    }

    fn next(&mut self) -> Option<Tok> {
        let t = self.toks.get(self.pos).map(|(_, t)| t.clone());
        self.pos += 1;
        t
    }

    fn err(&self, message: impl Into<String>) -> ParseModelError {
        ParseModelError {
            line: self.line(),
            message: message.into(),
        }
    }

    fn expect_word(&mut self, what: &str) -> Result<String, ParseModelError> {
        match self.next() {
            Some(Tok::Word(w)) => Ok(w),
            other => Err(self.err(format!("expected {what}, found {other:?}"))),
        }
    }

    fn expect(&mut self, tok: Tok) -> Result<(), ParseModelError> {
        match self.next() {
            Some(t) if t == tok => Ok(()),
            other => Err(self.err(format!("expected {tok:?}, found {other:?}"))),
        }
    }
}

/// A parsed `key=value` or bare-flag attribute.
#[derive(Debug, Clone, PartialEq, Eq)]
struct Attr {
    key: String,
    value: Option<String>,
}

/// Parses an attribute list: `a=1,b=2k,random`.
fn parse_attrs(lx: &mut Lexer) -> Result<Vec<Attr>, ParseModelError> {
    let mut attrs = Vec::new();
    loop {
        let key = lx.expect_word("attribute name")?;
        let value = if lx.peek() == Some(&Tok::Eq) {
            lx.next();
            Some(lx.expect_word("attribute value")?)
        } else {
            None
        };
        attrs.push(Attr { key, value });
        if lx.peek() == Some(&Tok::Comma) {
            lx.next();
        } else {
            break;
        }
    }
    Ok(attrs)
}

fn find<'a>(attrs: &'a [Attr], key: &str) -> Option<&'a Attr> {
    attrs.iter().find(|a| a.key == key)
}

fn required<'a>(lx: &Lexer, attrs: &'a [Attr], key: &str) -> Result<&'a str, ParseModelError> {
    find(attrs, key)
        .and_then(|a| a.value.as_deref())
        .ok_or_else(|| lx.err(format!("missing required attribute {key}")))
}

/// Parses a size literal: `4k`, `8192`, `10g`, `1m`.
pub fn parse_size(s: &str) -> Option<u64> {
    let lower = s.to_ascii_lowercase();
    let (digits, mult) = match lower.chars().last()? {
        'k' => (&lower[..lower.len() - 1], 1024u64),
        'm' => (&lower[..lower.len() - 1], 1024 * 1024),
        'g' => (&lower[..lower.len() - 1], 1024 * 1024 * 1024),
        't' => (&lower[..lower.len() - 1], 1024u64.pow(4)),
        _ => (lower.as_str(), 1),
    };
    digits.parse::<u64>().ok().map(|n| n * mult)
}

/// Parses a duration literal: `100us`, `2ms`, `1s`, bare integers = µs.
pub fn parse_duration(s: &str) -> Option<SimDuration> {
    let lower = s.to_ascii_lowercase();
    if let Some(d) = lower.strip_suffix("ms") {
        return d.parse::<u64>().ok().map(SimDuration::from_millis);
    }
    if let Some(d) = lower.strip_suffix("us") {
        return d.parse::<u64>().ok().map(SimDuration::from_micros);
    }
    if let Some(d) = lower.strip_suffix('s') {
        return d.parse::<u64>().ok().map(SimDuration::from_secs);
    }
    lower.parse::<u64>().ok().map(SimDuration::from_micros)
}

fn parse_pattern(attrs: &[Attr]) -> AccessPattern {
    if find(attrs, "random").is_some() {
        AccessPattern::Random
    } else {
        AccessPattern::Sequential
    }
}

fn parse_flowop(lx: &mut Lexer) -> Result<FlowopSpec, ParseModelError> {
    let kind_word = lx.expect_word("flowop kind")?;
    let attrs = parse_attrs(lx)?;
    let name = find(&attrs, "name")
        .and_then(|a| a.value.clone())
        .unwrap_or_else(|| kind_word.clone());
    let iosize = || -> Result<u64, ParseModelError> {
        let s = required(lx, &attrs, "iosize")?;
        parse_size(s).ok_or_else(|| lx.err(format!("bad iosize {s:?}")))
    };
    let rate = || -> Result<Option<u32>, ParseModelError> {
        match find(&attrs, "rate").and_then(|a| a.value.as_deref()) {
            None => Ok(None),
            Some(v) => v
                .parse::<u32>()
                .ok()
                .filter(|&r| r > 0)
                .map(Some)
                .ok_or_else(|| lx.err(format!("bad rate {v:?} (ops/sec, > 0)"))),
        }
    };
    let kind = match kind_word.as_str() {
        "read" => FlowopKind::Read {
            file: required(lx, &attrs, "file")?.to_owned(),
            iosize: iosize()?,
            pattern: parse_pattern(&attrs),
            rate: rate()?,
        },
        "write" => FlowopKind::Write {
            file: required(lx, &attrs, "file")?.to_owned(),
            iosize: iosize()?,
            pattern: parse_pattern(&attrs),
            sync: find(&attrs, "sync").is_some(),
            rate: rate()?,
        },
        "append" => FlowopKind::Append {
            file: required(lx, &attrs, "file")?.to_owned(),
            iosize: iosize()?,
            sync: find(&attrs, "sync").is_some(),
            rate: rate()?,
        },
        "think" => {
            let v = required(lx, &attrs, "value")?;
            FlowopKind::Think {
                duration: parse_duration(v)
                    .ok_or_else(|| lx.err(format!("bad think value {v:?}")))?,
            }
        }
        other => return Err(lx.err(format!("unknown flowop kind {other:?}"))),
    };
    Ok(FlowopSpec { name, kind })
}

fn parse_thread(lx: &mut Lexer) -> Result<ThreadSpec, ParseModelError> {
    let attrs = parse_attrs(lx)?;
    let name = required(lx, &attrs, "name")?.to_owned();
    let instances = match find(&attrs, "instances").and_then(|a| a.value.as_deref()) {
        Some(v) => v
            .parse::<u32>()
            .map_err(|e| lx.err(format!("bad instances: {e}")))?,
        None => 1,
    };
    lx.expect(Tok::LBrace)?;
    let mut flowops = Vec::new();
    loop {
        match lx.peek() {
            Some(Tok::RBrace) => {
                lx.next();
                break;
            }
            Some(Tok::Word(w)) if w == "flowop" => {
                lx.next();
                flowops.push(parse_flowop(lx)?);
            }
            other => return Err(lx.err(format!("expected flowop or '}}', found {other:?}"))),
        }
    }
    if flowops.is_empty() {
        return Err(lx.err(format!("thread {name:?} has no flowops")));
    }
    Ok(ThreadSpec {
        name,
        instances,
        flowops,
    })
}

/// Parses a complete model file.
///
/// # Errors
///
/// Returns a [`ParseModelError`] with the offending line on any syntax or
/// semantic problem (unknown flowop, missing attribute, undeclared file…).
///
/// # Examples
///
/// ```
/// use guests::filebench::parse_model;
///
/// let spec = parse_model(
///     "define file name=data,size=1g\n\
///      define process name=p,instances=1 {\n\
///        thread name=t,instances=2 {\n\
///          flowop read name=r,file=data,iosize=4k,random\n\
///          flowop think name=z,value=1ms\n\
///        }\n\
///      }\n",
/// )?;
/// assert_eq!(spec.total_threads(), 2);
/// # Ok::<(), guests::filebench::ParseModelError>(())
/// ```
pub fn parse_model(text: &str) -> Result<ModelSpec, ParseModelError> {
    let mut lx = Lexer::new(text);
    let mut spec = ModelSpec::default();
    while let Some(tok) = lx.next() {
        match tok {
            Tok::Word(w) if w == "define" => {
                let what = lx.expect_word("'file' or 'process'")?;
                match what.as_str() {
                    "file" => {
                        let attrs = parse_attrs(&mut lx)?;
                        let name = required(&lx, &attrs, "name")?.to_owned();
                        let size_str = required(&lx, &attrs, "size")?;
                        let size = parse_size(size_str)
                            .filter(|&s| s > 0)
                            .ok_or_else(|| lx.err(format!("bad file size {size_str:?}")))?;
                        spec.files.push(FileSpec { name, size });
                    }
                    "process" => {
                        let attrs = parse_attrs(&mut lx)?;
                        let name = required(&lx, &attrs, "name")?.to_owned();
                        let instances =
                            match find(&attrs, "instances").and_then(|a| a.value.as_deref()) {
                                Some(v) => v
                                    .parse::<u32>()
                                    .map_err(|e| lx.err(format!("bad instances: {e}")))?,
                                None => 1,
                            };
                        lx.expect(Tok::LBrace)?;
                        let mut threads = Vec::new();
                        loop {
                            match lx.peek() {
                                Some(Tok::RBrace) => {
                                    lx.next();
                                    break;
                                }
                                Some(Tok::Word(w)) if w == "thread" => {
                                    lx.next();
                                    threads.push(parse_thread(&mut lx)?);
                                }
                                other => {
                                    return Err(
                                        lx.err(format!("expected thread or '}}', found {other:?}"))
                                    )
                                }
                            }
                        }
                        if threads.is_empty() {
                            return Err(lx.err(format!("process {name:?} has no threads")));
                        }
                        spec.processes.push(ProcessSpec {
                            name,
                            instances,
                            threads,
                        });
                    }
                    other => return Err(lx.err(format!("cannot define {other:?}"))),
                }
            }
            other => return Err(lx.err(format!("expected 'define', found {other:?}"))),
        }
    }
    // Semantic check: every referenced file is declared.
    for p in &spec.processes {
        for t in &p.threads {
            for f in &t.flowops {
                let file = match &f.kind {
                    FlowopKind::Read { file, .. }
                    | FlowopKind::Write { file, .. }
                    | FlowopKind::Append { file, .. } => Some(file),
                    FlowopKind::Think { .. } => None,
                };
                if let Some(file) = file {
                    if spec.file(file).is_none() {
                        return Err(ParseModelError {
                            line: 0,
                            message: format!(
                                "flowop {:?} references undeclared file {file:?}",
                                f.name
                            ),
                        });
                    }
                }
            }
        }
    }
    Ok(spec)
}

#[cfg(test)]
mod tests {
    use super::*;

    const OK_MODEL: &str = "\
# a comment
define file name=data,size=10g
define file name=log,size=1g

define process name=oltp,instances=1 {
  thread name=reader,instances=20 {
    flowop read name=dbread,file=data,iosize=4k,random
    flowop think name=t1,value=2ms
  }
  thread name=logger {
    flowop append name=lg,file=log,iosize=4k,sync
    flowop think name=t2,value=5ms
  }
}
";

    #[test]
    fn parses_full_model() {
        let spec = parse_model(OK_MODEL).unwrap();
        assert_eq!(spec.files.len(), 2);
        assert_eq!(spec.file("data").unwrap().size, 10 * 1024 * 1024 * 1024);
        assert_eq!(spec.processes.len(), 1);
        let p = &spec.processes[0];
        assert_eq!(p.threads.len(), 2);
        assert_eq!(p.threads[0].instances, 20);
        assert_eq!(p.threads[1].instances, 1);
        assert_eq!(spec.total_threads(), 21);
        match &p.threads[0].flowops[0].kind {
            FlowopKind::Read {
                file,
                iosize,
                pattern,
                ..
            } => {
                assert_eq!(file, "data");
                assert_eq!(*iosize, 4096);
                assert_eq!(*pattern, AccessPattern::Random);
            }
            other => panic!("unexpected {other:?}"),
        }
        match &p.threads[1].flowops[0].kind {
            FlowopKind::Append { sync, .. } => assert!(*sync),
            other => panic!("unexpected {other:?}"),
        }
        match &p.threads[1].flowops[1].kind {
            FlowopKind::Think { duration } => {
                assert_eq!(*duration, SimDuration::from_millis(5))
            }
            other => panic!("unexpected {other:?}"),
        }
    }

    #[test]
    fn size_literals() {
        assert_eq!(parse_size("4k"), Some(4096));
        assert_eq!(parse_size("8192"), Some(8192));
        assert_eq!(parse_size("1m"), Some(1024 * 1024));
        assert_eq!(parse_size("10G"), Some(10 * 1024 * 1024 * 1024));
        assert_eq!(parse_size("2t"), Some(2 * 1024u64.pow(4)));
        assert_eq!(parse_size("x"), None);
    }

    #[test]
    fn duration_literals() {
        assert_eq!(parse_duration("100us"), Some(SimDuration::from_micros(100)));
        assert_eq!(parse_duration("2ms"), Some(SimDuration::from_millis(2)));
        assert_eq!(parse_duration("1s"), Some(SimDuration::from_secs(1)));
        assert_eq!(parse_duration("250"), Some(SimDuration::from_micros(250)));
        assert_eq!(parse_duration("abc"), None);
    }

    #[test]
    fn error_on_undeclared_file() {
        let err = parse_model(
            "define process name=p {\n thread name=t {\n flowop read name=r,file=ghost,iosize=4k\n }\n}\n",
        )
        .unwrap_err();
        assert!(err.message.contains("ghost"));
    }

    #[test]
    fn error_on_unknown_flowop() {
        let err = parse_model(
            "define file name=d,size=1m\ndefine process name=p {\n thread name=t {\n flowop dance name=x,file=d,iosize=4k\n }\n}\n",
        )
        .unwrap_err();
        assert!(err.message.contains("dance"));
        assert!((4..=5).contains(&err.line), "line = {}", err.line);
    }

    #[test]
    fn error_on_missing_attrs() {
        assert!(parse_model("define file name=d\n").is_err()); // missing size
        assert!(parse_model(
            "define file name=d,size=1m\ndefine process name=p {\n thread name=t {\n flowop read name=r,file=d\n }\n}\n"
        )
        .is_err()); // missing iosize
    }

    #[test]
    fn error_on_empty_blocks() {
        assert!(parse_model("define file name=d,size=1m\ndefine process name=p {\n}\n").is_err());
        assert!(parse_model(
            "define file name=d,size=1m\ndefine process name=p {\n thread name=t {\n }\n}\n"
        )
        .is_err());
    }

    #[test]
    fn comments_and_whitespace_ignored() {
        let spec =
            parse_model("  # nothing\n\ndefine file name=d , size = 1m # trailing\n").unwrap();
        assert_eq!(spec.files.len(), 1);
    }

    #[test]
    fn sequential_is_default_pattern() {
        let spec = parse_model(
            "define file name=d,size=1m\ndefine process name=p {\n thread name=t {\n flowop read name=r,file=d,iosize=4k\n }\n}\n",
        )
        .unwrap();
        match &spec.processes[0].threads[0].flowops[0].kind {
            FlowopKind::Read { pattern, .. } => assert_eq!(*pattern, AccessPattern::Sequential),
            other => panic!("unexpected {other:?}"),
        }
    }
}
