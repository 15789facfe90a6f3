//! Translator profiles: what the directory stores and queries select.

use std::collections::BTreeMap;
use std::fmt;
use std::sync::Arc;

use crate::id::TranslatorId;
use crate::shape::Shape;

/// The advertised description of a translator in the intermediary
/// semantic space: identity, human-readable name, originating platform,
/// shape, and free-form attributes.
///
/// Profiles are what [`lookup`](crate::Query) returns and what the
/// directory module gossips between runtimes.
///
/// The description itself lives behind an [`Arc`]: cloning a profile is a
/// reference-count bump, so fanning one appearance out to N directory
/// listeners, replicating it across tables, or carrying it through the
/// delta-gossip plane costs O(1) per copy regardless of how many ports
/// and attributes it has. The rare mutating operations
/// ([`with_id`](TranslatorProfile::with_id),
/// [`with_attr`](TranslatorProfile::with_attr)) copy-on-write.
///
/// # Examples
///
/// ```
/// use umiddle_core::{Direction, RuntimeId, Shape, TranslatorId, TranslatorProfile};
///
/// let shape = Shape::builder()
///     .digital("image-out", Direction::Output, "image/jpeg".parse()?)
///     .build()?;
/// let profile = TranslatorProfile::builder(
///     TranslatorId::new(RuntimeId(0), 3),
///     "BIP Camera",
/// )
/// .platform("bluetooth")
/// .shape(shape)
/// .attr("profile", "bip")
/// .build();
/// assert_eq!(profile.platform(), "bluetooth");
/// # Ok::<(), umiddle_core::CoreError>(())
/// ```
#[derive(Clone)]
pub struct TranslatorProfile {
    inner: Arc<ProfileInner>,
}

#[derive(Debug, Clone, PartialEq)]
struct ProfileInner {
    id: TranslatorId,
    name: String,
    platform: String,
    shape: Shape,
    attrs: BTreeMap<String, String>,
}

impl TranslatorProfile {
    /// Starts building a profile. `"umiddle"` is the default platform,
    /// meaning a native uMiddle service.
    pub fn builder(id: TranslatorId, name: impl Into<String>) -> TranslatorProfileBuilder {
        TranslatorProfileBuilder {
            profile: ProfileInner {
                id,
                name: name.into(),
                platform: "umiddle".to_owned(),
                shape: Shape::default(),
                attrs: BTreeMap::new(),
            },
        }
    }

    /// The globally unique translator id.
    pub fn id(&self) -> TranslatorId {
        self.inner.id
    }

    /// Human-readable device name.
    pub fn name(&self) -> &str {
        &self.inner.name
    }

    /// The platform the device was imported from (`"upnp"`,
    /// `"bluetooth"`, `"rmi"`, `"umiddle"` for native services, …).
    pub fn platform(&self) -> &str {
        &self.inner.platform
    }

    /// The device's shape (its set of typed ports).
    pub fn shape(&self) -> &Shape {
        &self.inner.shape
    }

    /// Looks up a free-form attribute.
    pub fn attr(&self, key: &str) -> Option<&str> {
        self.inner.attrs.get(key).map(String::as_str)
    }

    /// All attributes, sorted by key.
    pub fn attrs(&self) -> impl Iterator<Item = (&str, &str)> {
        self.inner
            .attrs
            .iter()
            .map(|(k, v)| (k.as_str(), v.as_str()))
    }

    /// Re-keys a profile onto a different translator id (used when the
    /// same device description is instantiated repeatedly).
    pub fn with_id(mut self, id: TranslatorId) -> TranslatorProfile {
        Arc::make_mut(&mut self.inner).id = id;
        self
    }

    /// Adds or replaces an attribute (builder style on a built profile).
    pub fn with_attr(
        mut self,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> TranslatorProfile {
        Arc::make_mut(&mut self.inner)
            .attrs
            .insert(key.into(), value.into());
        self
    }

    /// `true` if both handles point at the same shared description (used
    /// by tests pinning the O(1)-clone behavior).
    pub fn shares_storage(&self, other: &TranslatorProfile) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner)
    }

    /// `true` if another handle shares this description (the decoder's
    /// profile table drops entries only it still holds).
    pub(crate) fn is_shared(&self) -> bool {
        Arc::strong_count(&self.inner) > 1
    }
}

impl PartialEq for TranslatorProfile {
    fn eq(&self, other: &TranslatorProfile) -> bool {
        Arc::ptr_eq(&self.inner, &other.inner) || self.inner == other.inner
    }
}

impl fmt::Debug for TranslatorProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        self.inner.fmt(f)
    }
}

impl fmt::Display for TranslatorProfile {
    fn fmt(&self, f: &mut fmt::Formatter<'_>) -> fmt::Result {
        write!(
            f,
            "{} {:?} [{}] {}",
            self.inner.id, self.inner.name, self.inner.platform, self.inner.shape
        )
    }
}

/// Builder for [`TranslatorProfile`].
#[derive(Debug, Clone)]
pub struct TranslatorProfileBuilder {
    profile: ProfileInner,
}

impl TranslatorProfileBuilder {
    /// Sets the originating platform.
    pub fn platform(mut self, platform: impl Into<String>) -> TranslatorProfileBuilder {
        self.profile.platform = platform.into();
        self
    }

    /// Sets the shape.
    pub fn shape(mut self, shape: Shape) -> TranslatorProfileBuilder {
        self.profile.shape = shape;
        self
    }

    /// Adds an attribute.
    pub fn attr(
        mut self,
        key: impl Into<String>,
        value: impl Into<String>,
    ) -> TranslatorProfileBuilder {
        self.profile.attrs.insert(key.into(), value.into());
        self
    }

    /// Finishes the profile.
    pub fn build(self) -> TranslatorProfile {
        TranslatorProfile {
            inner: Arc::new(self.profile),
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::id::RuntimeId;
    use crate::shape::Direction;

    #[test]
    fn builder_defaults_and_overrides() {
        let p = TranslatorProfile::builder(TranslatorId::new(RuntimeId(1), 2), "Thing").build();
        assert_eq!(p.platform(), "umiddle");
        assert!(p.shape().ports().is_empty());
        assert_eq!(p.attr("x"), None);

        let p2 = TranslatorProfile::builder(TranslatorId::new(RuntimeId(1), 3), "Other")
            .platform("upnp")
            .attr("a", "1")
            .attr("b", "2")
            .build();
        assert_eq!(p2.platform(), "upnp");
        let attrs: Vec<_> = p2.attrs().collect();
        assert_eq!(attrs, vec![("a", "1"), ("b", "2")]);
    }

    #[test]
    fn with_id_rekeys() {
        let p = TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), 0), "X").build();
        let q = p.clone().with_id(TranslatorId::new(RuntimeId(9), 9));
        assert_eq!(q.id(), TranslatorId::new(RuntimeId(9), 9));
        assert_eq!(q.name(), p.name());
    }

    #[test]
    fn clones_share_storage_and_cow_detaches() {
        let p = TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), 1), "Cam").build();
        let q = p.clone();
        assert!(p.shares_storage(&q), "clone is a refcount bump");
        assert_eq!(p, q);
        // A mutation must not write through to other handles.
        let r = q.clone().with_attr("room", "den");
        assert!(!r.shares_storage(&p));
        assert_eq!(p.attr("room"), None);
        assert_eq!(r.attr("room"), Some("den"));
    }

    #[test]
    fn display_mentions_name_and_platform() {
        let shape = Shape::builder()
            .digital("o", Direction::Output, "a/b".parse().unwrap())
            .build()
            .unwrap();
        let p = TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), 1), "Cam")
            .platform("bluetooth")
            .shape(shape)
            .build();
        let s = p.to_string();
        assert!(s.contains("Cam") && s.contains("bluetooth"));
    }
}
