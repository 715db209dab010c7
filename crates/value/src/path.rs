//! Dotted-path addressing of model attributes.
//!
//! dSpace accesses model attributes by URI-like paths (Table 1 of the paper
//! uses e.g. `.control.brightness.intent`). A [`Path`] is a parsed sequence
//! of [`Segment`]s supporting both object keys and array indices.

use std::fmt;
use std::str::FromStr;

/// One step of a [`Path`]: an object key or an array index.
#[derive(Debug, Clone, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub enum Segment {
    /// Descend into an object attribute by name.
    Key(String),
    /// Descend into an array element by position.
    Index(usize),
}

impl Segment {
    /// This segment as the token the path grammar reads.
    pub(crate) fn token(&self) -> Token<'_> {
        match self {
            Segment::Key(k) => Token::Key(k),
            Segment::Index(i) => Token::Index(*i),
        }
    }
}

impl fmt::Display for Segment {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        match self {
            Segment::Key(k) => write!(f, "{k}"),
            Segment::Index(i) => write!(f, "[{i}]"),
        }
    }
}

/// A parsed attribute path such as `.control.power.intent` or `obs.objects[0]`.
#[derive(Debug, Clone, PartialEq, Eq, Hash, Default, PartialOrd, Ord)]
pub struct Path {
    segments: Vec<Segment>,
}

/// Error returned when a path string cannot be parsed.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct PathParseError(pub String);

impl fmt::Display for PathParseError {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "invalid path: {}", self.0)
    }
}

impl std::error::Error for PathParseError {}

impl Path {
    /// The empty path, addressing the document root.
    pub fn root() -> Self {
        Path {
            segments: Vec::new(),
        }
    }

    /// Builds a path from segments.
    pub fn new(segments: Vec<Segment>) -> Self {
        Path { segments }
    }

    /// Builds a path of key segments from an iterator of strings.
    pub fn keys<I, S>(keys: I) -> Self
    where
        I: IntoIterator<Item = S>,
        S: Into<String>,
    {
        Path {
            segments: keys.into_iter().map(|k| Segment::Key(k.into())).collect(),
        }
    }

    /// Returns the segments of the path.
    pub fn segments(&self) -> &[Segment] {
        &self.segments
    }

    /// Returns `true` if the path addresses the root.
    pub fn is_empty(&self) -> bool {
        self.segments.is_empty()
    }

    /// Returns the number of segments.
    pub fn len(&self) -> usize {
        self.segments.len()
    }

    /// Returns a new path extended by one key segment.
    pub fn child(&self, key: impl Into<String>) -> Path {
        let mut p = self.clone();
        p.segments.push(Segment::Key(key.into()));
        p
    }

    /// Returns a new path extended by one index segment.
    pub fn index(&self, idx: usize) -> Path {
        let mut p = self.clone();
        p.segments.push(Segment::Index(idx));
        p
    }

    /// Returns a new path that is `self` followed by `other`.
    pub fn join(&self, other: &Path) -> Path {
        let mut p = self.clone();
        p.segments.extend(other.segments.iter().cloned());
        p
    }

    /// Returns the first `n` segments as a path.
    pub fn prefix(&self, n: usize) -> Path {
        Path {
            segments: self.segments[..n.min(self.segments.len())].to_vec(),
        }
    }

    /// Splits off the last segment, returning the parent path and that
    /// segment, or `None` for the root path.
    pub fn split_last(&self) -> Option<(Path, Segment)> {
        let (last, rest) = self.segments.split_last()?;
        Some((
            Path {
                segments: rest.to_vec(),
            },
            last.clone(),
        ))
    }

    /// Returns `true` if `self` is a (non-strict) prefix of `other`.
    pub fn is_prefix_of(&self, other: &Path) -> bool {
        other.segments.len() >= self.segments.len()
            && other.segments[..self.segments.len()] == self.segments[..]
    }

    /// Returns the suffix of `other` after stripping `self`, if `self` is a
    /// prefix of `other`.
    pub fn strip_prefix(&self, other: &Path) -> Option<Path> {
        if self.is_prefix_of(other) {
            Some(Path {
                segments: other.segments[self.segments.len()..].to_vec(),
            })
        } else {
            None
        }
    }
}

impl fmt::Display for Path {
    /// Renders the canonical `.a.b[0].c` form with a leading dot.
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        if self.segments.is_empty() {
            return f.write_str(".");
        }
        for seg in &self.segments {
            match seg {
                Segment::Key(k) => write!(f, ".{k}")?,
                Segment::Index(i) => write!(f, "[{i}]")?,
            }
        }
        Ok(())
    }
}

impl FromStr for Path {
    type Err = PathParseError;

    /// Parses paths like `.control.power.intent`, `control.power`, or
    /// `obs.objects[2]`. A bare `.` is the root path.
    fn from_str(s: &str) -> Result<Self, Self::Err> {
        let segments = tokens(s)
            .map(|t| match t? {
                Token::Key(k) => Ok(Segment::Key(k.to_string())),
                Token::Index(i) => Ok(Segment::Index(i)),
            })
            .collect::<Result<_, _>>()
            .map_err(|Malformed| PathParseError(s.trim().to_string()))?;
        Ok(Path { segments })
    }
}

/// One segment of a path string, borrowed from it: what [`tokens`] yields.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) enum Token<'a> {
    Key(&'a str),
    Index(usize),
}

/// The error [`tokens`] yields where a path string leaves the grammar.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub(crate) struct Malformed;

/// Returns `true` for a character a key segment may hold: a letter or
/// digit, `_`, `-`, `/` or `:`.
fn is_key_char(c: char) -> bool {
    c.is_alphanumeric() || matches!(c, '_' | '-' | '/' | ':')
}

/// Returns `true` if `s` is exactly one key segment, so that a path can
/// spell it: non-empty, and only characters a key may hold.
pub fn is_key(s: &str) -> bool {
    !s.is_empty() && s.chars().all(is_key_char)
}

/// The path grammar, defined once: splits a path string into its segments
/// in place, without allocating. [`Path::from_str`] collects the tokens;
/// [`Value::get_path`](crate::Value::get_path) walks them. The string is
/// trimmed; an empty string or a bare `.` has no segments (the root). A
/// leading `.` is optional; keys are separated by `.`; `[n]` is an index,
/// which may be followed by `.`, `[` or the end. At the first spot that
/// leaves the grammar the tokens end with [`Malformed`].
pub(crate) fn tokens(s: &str) -> Tokens<'_> {
    let s = s.trim();
    Tokens {
        rest: s.strip_prefix('.').unwrap_or(s),
    }
}

/// The iterator [`tokens`] returns.
pub(crate) struct Tokens<'a> {
    /// The unread tail of the path; emptied once a token is malformed.
    rest: &'a str,
}

impl<'a> Iterator for Tokens<'a> {
    type Item = Result<Token<'a>, Malformed>;

    fn next(&mut self) -> Option<Self::Item> {
        let s = self.rest;
        if s.is_empty() {
            return None;
        }
        let end = s.find(|c| !is_key_char(c)).unwrap_or(s.len());
        let (key, tail) = s.split_at(end);
        let token = match tail.chars().next() {
            None => Ok((Token::Key(key), tail)),
            Some('.') if !key.is_empty() => Ok((Token::Key(key), &tail[1..])),
            // A key ends where an index opens; the index is the next token.
            Some('[') if !key.is_empty() => Ok((Token::Key(key), tail)),
            Some('[') => index(&tail[1..]),
            Some(_) => Err(Malformed),
        };
        Some(match token {
            Ok((token, rest)) => {
                self.rest = rest;
                Ok(token)
            }
            Err(Malformed) => {
                self.rest = "";
                Err(Malformed)
            }
        })
    }
}

/// Reads an index from `s`, which follows its `[`: everything up to the
/// next `]` (or the end) is the number, trimmed; a `.` after the `]` is
/// consumed, and anything but a `.`, a `[` or the end is malformed.
fn index(s: &str) -> Result<(Token<'_>, &str), Malformed> {
    let (num, rest) = s.split_once(']').unwrap_or((s, ""));
    let i = num.trim().parse().map_err(|_| Malformed)?;
    match rest.chars().next() {
        None | Some('[') => Ok((Token::Index(i), rest)),
        Some('.') => Ok((Token::Index(i), &rest[1..])),
        Some(_) => Err(Malformed),
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_simple() {
        let p: Path = ".control.power.intent".parse().unwrap();
        assert_eq!(p.len(), 3);
        assert_eq!(p.to_string(), ".control.power.intent");
    }

    #[test]
    fn parse_without_leading_dot() {
        let p: Path = "control.power".parse().unwrap();
        assert_eq!(p.segments()[0], Segment::Key("control".into()));
    }

    #[test]
    fn parse_indices() {
        let p: Path = "obs.objects[2].name".parse().unwrap();
        assert_eq!(
            p.segments(),
            &[
                Segment::Key("obs".into()),
                Segment::Key("objects".into()),
                Segment::Index(2),
                Segment::Key("name".into()),
            ]
        );
        assert_eq!(p.to_string(), ".obs.objects[2].name");
    }

    #[test]
    fn parse_root() {
        assert!(".".parse::<Path>().unwrap().is_empty());
        assert!("".parse::<Path>().unwrap().is_empty());
    }

    #[test]
    fn parse_rejects_garbage() {
        assert!("a..b".parse::<Path>().is_err());
        assert!("a[x]".parse::<Path>().is_err());
        assert!("a b".parse::<Path>().is_err());
    }

    #[test]
    fn prefix_relationships() {
        let a: Path = ".control".parse().unwrap();
        let b: Path = ".control.power.intent".parse().unwrap();
        assert!(a.is_prefix_of(&b));
        assert!(!b.is_prefix_of(&a));
        assert!(a.is_prefix_of(&a));
        assert_eq!(a.strip_prefix(&b).unwrap().to_string(), ".power.intent");
    }

    #[test]
    fn join_and_child() {
        let a: Path = ".mount".parse().unwrap();
        let b = a.child("unilamp").child("ul1");
        assert_eq!(b.to_string(), ".mount.unilamp.ul1");
        let c: Path = ".control".parse().unwrap();
        assert_eq!(b.join(&c).to_string(), ".mount.unilamp.ul1.control");
    }

    #[test]
    fn split_last() {
        let p: Path = ".a.b[1]".parse().unwrap();
        let (parent, last) = p.split_last().unwrap();
        assert_eq!(parent.to_string(), ".a.b");
        assert_eq!(last, Segment::Index(1));
        assert!(Path::root().split_last().is_none());
    }

    #[test]
    fn keys_in_names_allow_dashes_and_slashes() {
        let p: Path = ".reflex.motion-brightness.policy".parse().unwrap();
        assert_eq!(p.len(), 3);
        let q: Path = ".data.input.url".parse().unwrap();
        assert_eq!(q.len(), 3);
    }
}
