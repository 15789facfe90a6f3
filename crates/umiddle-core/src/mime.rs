//! MIME types with wildcard matching — the data-type tags of digital ports.
//!
//! The paper's Service Shaping technique tags every *digital port* with a
//! MIME type; two devices are compatible when an output port and an input
//! port carry matching types. Applications may use wildcards (`image/*`,
//! `*/*`) in queries, mirroring the paper's `visible/*` example.

use std::fmt;
use std::str::FromStr;

use crate::error::CoreError;
use crate::intern::Symbol;

/// A MIME type: a type and subtype, either of which may be the wildcard
/// `*` in patterns used by queries.
///
/// Both components are interned [`Symbol`]s (MIME types are a small,
/// stable vocabulary), so cloning a type or a message that carries one
/// copies no string; order, equality and hashing are by content.
///
/// Comparison via [`MimeType::matches`] is asymmetric-safe: wildcards on
/// either side match, and matching is case-insensitive (types are
/// normalized to lowercase on construction).
///
/// # Examples
///
/// ```
/// use umiddle_core::MimeType;
///
/// let jpeg: MimeType = "image/jpeg".parse()?;
/// let any_image: MimeType = "image/*".parse()?;
/// assert!(jpeg.matches(&any_image));
/// assert!(any_image.matches(&jpeg));
/// assert!(!jpeg.matches(&"text/plain".parse()?));
/// # Ok::<(), umiddle_core::CoreError>(())
/// ```
#[derive(Debug, Clone, PartialEq, Eq, PartialOrd, Ord, Hash)]
pub struct MimeType {
    ty: Symbol,
    subtype: Symbol,
}

impl MimeType {
    /// Creates a MIME type from its two components, normalizing case.
    ///
    /// # Errors
    ///
    /// Returns [`CoreError::InvalidMime`] if either component is empty or
    /// contains whitespace or `/`.
    pub fn new(ty: &str, subtype: &str) -> Result<MimeType, CoreError> {
        fn ok(part: &str) -> bool {
            !part.is_empty() && !part.contains('/') && !part.chars().any(|c| c.is_whitespace())
        }
        if !ok(ty) || !ok(subtype) {
            return Err(CoreError::InvalidMime(format!("{ty}/{subtype}")));
        }
        fn lower(part: &str) -> Symbol {
            if part.bytes().any(|b| b.is_ascii_uppercase()) {
                Symbol::new(&part.to_ascii_lowercase())
            } else {
                Symbol::new(part)
            }
        }
        Ok(MimeType {
            ty: lower(ty),
            subtype: lower(subtype),
        })
    }

    /// The full wildcard `*/*`, matching every type.
    pub fn any() -> MimeType {
        MimeType {
            ty: Symbol::new("*"),
            subtype: Symbol::new("*"),
        }
    }

    /// The interned type and subtype.
    pub(crate) fn parts(&self) -> (Symbol, Symbol) {
        (self.ty, self.subtype)
    }

    /// The primary type component (`image` in `image/jpeg`).
    pub fn ty(&self) -> &str {
        &self.ty
    }

    /// The subtype component (`jpeg` in `image/jpeg`).
    pub fn subtype(&self) -> &str {
        &self.subtype
    }

    /// Returns `true` if either component is a wildcard.
    pub fn is_pattern(&self) -> bool {
        &*self.ty == "*" || &*self.subtype == "*"
    }

    /// Returns `true` if `self` and `other` match, treating `*` on either
    /// side as matching anything. This relation is symmetric.
    pub fn matches(&self, other: &MimeType) -> bool {
        fn part(a: &str, b: &str) -> bool {
            a == "*" || b == "*" || a == b
        }
        part(&self.ty, &other.ty) && part(&self.subtype, &other.subtype)
    }

    /// Returns `true` if `self` is at least as specific as `other`
    /// (everything `self` matches, `other` also matches).
    pub fn refines(&self, other: &MimeType) -> bool {
        fn part(narrow: &str, wide: &str) -> bool {
            wide == "*" || narrow == wide
        }
        part(&self.ty, &other.ty) && part(&self.subtype, &other.subtype)
    }
}

impl fmt::Display for MimeType {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(f, "{}/{}", self.ty, self.subtype)
    }
}

impl FromStr for MimeType {
    type Err = CoreError;

    fn from_str(s: &str) -> Result<MimeType, CoreError> {
        let (ty, subtype) = s
            .split_once('/')
            .ok_or_else(|| CoreError::InvalidMime(s.to_owned()))?;
        MimeType::new(ty, subtype)
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    #[test]
    fn parse_and_display_round_trip() {
        let m: MimeType = "Image/JPEG".parse().unwrap();
        assert_eq!(m.to_string(), "image/jpeg");
        assert_eq!(m.ty(), "image");
        assert_eq!(m.subtype(), "jpeg");
    }

    #[test]
    fn invalid_forms_rejected() {
        assert!("imagejpeg".parse::<MimeType>().is_err());
        assert!("image/".parse::<MimeType>().is_err());
        assert!("/jpeg".parse::<MimeType>().is_err());
        assert!("ima ge/jpeg".parse::<MimeType>().is_err());
        assert!("image/jp/eg".parse::<MimeType>().is_err());
    }

    #[test]
    fn wildcard_matching() {
        let jpeg: MimeType = "image/jpeg".parse().unwrap();
        let image_any: MimeType = "image/*".parse().unwrap();
        let any: MimeType = MimeType::any();
        assert!(jpeg.matches(&image_any));
        assert!(jpeg.matches(&any));
        assert!(!jpeg.matches(&"image/png".parse().unwrap()));
        assert!(image_any.matches(&"image/png".parse().unwrap()));
        assert!(any.is_pattern());
        assert!(!jpeg.is_pattern());
    }

    #[test]
    fn refinement_is_one_directional() {
        let jpeg: MimeType = "image/jpeg".parse().unwrap();
        let image_any: MimeType = "image/*".parse().unwrap();
        assert!(jpeg.refines(&image_any));
        assert!(!image_any.refines(&jpeg));
        assert!(jpeg.refines(&jpeg));
    }

    fn arb_part(rng: &mut simnet::SimRng) -> String {
        if rng.gen_bool(0.25) {
            "*".to_owned()
        } else {
            let head = rng.gen_string("abcdefghijklmnopqrstuvwxyz", 1);
            let len = rng.gen_range(0usize..=8);
            head + &rng.gen_string("abcdefghijklmnopqrstuvwxyz0123456789-", len)
        }
    }

    fn arb_mime(rng: &mut simnet::SimRng) -> MimeType {
        let t = arb_part(rng);
        let s = arb_part(rng);
        MimeType::new(&t, &s).expect("generated parts are valid")
    }

    /// `matches` is symmetric and reflexive; refinement implies matching;
    /// `*/*` matches everything; parse/display round-trips.
    #[test]
    fn matching_algebra() {
        simnet::check_cases("mime_matching_algebra", 256, |_, rng| {
            let a = arb_mime(rng);
            let b = arb_mime(rng);
            assert_eq!(a.matches(&b), b.matches(&a), "symmetric: {a} vs {b}");
            assert!(a.matches(&a), "reflexive: {a}");
            if a.refines(&b) {
                assert!(a.matches(&b), "refines implies matches: {a} vs {b}");
            }
            assert!(MimeType::any().matches(&a), "*/* matches {a}");
            let back: MimeType = a.to_string().parse().unwrap();
            assert_eq!(a, back, "parse/display round trip");
        });
    }
}
