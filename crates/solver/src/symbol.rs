//! A tiny global string interner.
//!
//! Symbols are used pervasively for constructor tags, uninterpreted function
//! names, predicate names, logical variables and program variables. Interning
//! keeps expression trees cheap to clone and compare, which matters because the
//! symbolic-execution engine clones states at every branch point.

use std::collections::HashMap;
use std::fmt;
use std::sync::{Mutex, OnceLock};

/// An interned string.
///
/// Equality and hashing are O(1); the textual form can be recovered with
/// [`Symbol::as_str`]. Interning leaks a `'static` copy of each new name and
/// the table never shrinks, so every distinct name stays for the life of the
/// process: the program text's names, and the fresh logical-variable names
/// the engine mints (numbered per engine, so a new session repeats the names
/// of the one before instead of adding new ones).
#[derive(Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Symbol(u32);

struct Interner {
    names: Vec<&'static str>,
    map: HashMap<&'static str, u32>,
}

fn interner() -> &'static Mutex<Interner> {
    static INTERNER: OnceLock<Mutex<Interner>> = OnceLock::new();
    INTERNER.get_or_init(|| {
        Mutex::new(Interner {
            names: Vec::new(),
            map: HashMap::new(),
        })
    })
}

impl Symbol {
    /// Interns `name` and returns its symbol.
    pub fn new(name: &str) -> Symbol {
        let mut guard = interner().lock().unwrap();
        if let Some(&id) = guard.map.get(name) {
            return Symbol(id);
        }
        let leaked: &'static str = Box::leak(name.to_owned().into_boxed_str());
        let id = guard.names.len() as u32;
        guard.names.push(leaked);
        guard.map.insert(leaked, id);
        Symbol(id)
    }

    /// Returns the interned text.
    pub fn as_str(self) -> &'static str {
        interner().lock().unwrap().names[self.0 as usize]
    }

    /// The raw interner index (useful for dense maps).
    pub fn index(self) -> u32 {
        self.0
    }
}

impl fmt::Debug for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl fmt::Display for Symbol {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}", self.as_str())
    }
}

impl From<&str> for Symbol {
    fn from(s: &str) -> Self {
        Symbol::new(s)
    }
}

impl From<String> for Symbol {
    fn from(s: String) -> Self {
        Symbol::new(&s)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn interning_is_stable() {
        let a = Symbol::new("hello");
        let b = Symbol::new("hello");
        let c = Symbol::new("world");
        assert_eq!(a, b);
        assert_ne!(a, c);
        assert_eq!(a.as_str(), "hello");
        assert_eq!(c.as_str(), "world");
    }

    #[test]
    fn display_matches_text() {
        let s = Symbol::new("dll_seg");
        assert_eq!(format!("{s}"), "dll_seg");
        assert_eq!(format!("{s:?}"), "dll_seg");
    }

    #[test]
    fn from_string_and_str_agree() {
        let a: Symbol = "push_front".into();
        let b: Symbol = String::from("push_front").into();
        assert_eq!(a, b);
    }
}
