//! G2 UI — the Geographical User Interface (paper §4.2), headless.
//!
//! Gadgets (media storage, player and capture devices) are *located* at
//! coordinates in a geographical space. Co-location of compatible devices
//! triggers **geoplay** (playback of media from a co-located storage or
//! capture device) or **geostore** (a storage device records a co-located
//! capture device). Because the composition happens in the common
//! semantic space, it works across platforms: "if a user co-locates a
//! Bluetooth digital camera and a UPnP MediaRenderer TV, the images in
//! the camera would serve as the source for the TV".

use std::cell::RefCell;
use std::collections::HashMap;
use std::rc::Rc;

use simnet::{Ctx, LocalMessage, ProcId, Process};
use umiddle_core::{
    ConnectionId, Direction, DirectoryEvent, PerceptionType, PortKind, PortRef, QosPolicy, Query,
    RuntimeClient, RuntimeEvent, TranslatorId, TranslatorProfile,
};

/// A 2-D position in the geographic coordinate system.
#[derive(Debug, Clone, Copy, PartialEq)]
pub struct Position {
    /// East-west coordinate (meters).
    pub x: f64,
    /// North-south coordinate (meters).
    pub y: f64,
}

impl Position {
    /// Creates a position.
    pub fn new(x: f64, y: f64) -> Position {
        Position { x, y }
    }

    /// Euclidean distance to another position.
    pub fn distance(self, other: Position) -> f64 {
        ((self.x - other.x).powi(2) + (self.y - other.y).powi(2)).sqrt()
    }
}

/// The role G2 UI infers from a gadget's shape.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GadgetRole {
    /// Produces media (camera, microphone, sensor feed).
    Capture,
    /// Renders media perceptibly (TV, speaker).
    Player,
    /// Accepts and keeps media (archive, album).
    Storage,
    /// None of the above.
    Other,
}

/// Infers a gadget's role from its shape, following the paper's device
/// categories. Only *content* ports count as media (image, audio,
/// video): capture devices produce content; players consume content and
/// render it perceptibly; storage consumes content without rendering it
/// (or is tagged `category=storage`).
pub fn infer_role(profile: &TranslatorProfile) -> GadgetRole {
    fn is_content(kind: &PortKind) -> bool {
        kind.mime()
            .map(|m| matches!(m.ty(), "image" | "audio" | "video"))
            .unwrap_or(false)
    }
    let shape = profile.shape();
    let content_in = shape
        .ports_in(Direction::Input)
        .any(|p| is_content(&p.kind));
    let content_out = shape
        .ports_in(Direction::Output)
        .any(|p| is_content(&p.kind));
    let perceptible = shape.has_matching_port(
        Direction::Output,
        &PortKind::physical(PerceptionType::Any, "*"),
    );
    if content_out {
        GadgetRole::Capture
    } else if content_in && profile.attr("category") == Some("storage") {
        GadgetRole::Storage
    } else if content_in && perceptible {
        GadgetRole::Player
    } else if content_in {
        GadgetRole::Storage
    } else {
        GadgetRole::Other
    }
}

/// A geo-triggered composition currently in force.
#[derive(Debug, Clone, PartialEq)]
pub struct GeoComposition {
    /// `Geoplay` or `Geostore`.
    pub kind: GeoKind,
    /// The media source.
    pub src: PortRef,
    /// The consuming device.
    pub dst: PortRef,
    /// The underlying connection, once established.
    pub connection: Option<ConnectionId>,
}

/// The two composition kinds of §4.2.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum GeoKind {
    /// Capture/storage → player.
    Geoplay,
    /// Capture → storage.
    Geostore,
}

/// Commands for placing and moving gadgets.
#[derive(Debug, Clone, PartialEq)]
pub enum G2Command {
    /// Registers/moves the gadget whose name contains `name` to a
    /// position.
    Place {
        /// Translator name substring.
        name: String,
        /// New position.
        position: Position,
    },
    /// Removes a gadget from the coordinate space.
    Remove {
        /// Translator name substring.
        name: String,
    },
}

/// Observable G2 UI state.
#[derive(Debug, Clone, Default)]
pub struct Atlas {
    /// Placements: `(profile, position)`.
    pub placements: Vec<(TranslatorProfile, Position)>,
    /// Active compositions.
    pub compositions: Vec<GeoComposition>,
    /// History log of composition events.
    pub log: Vec<String>,
}

/// The G2 UI application process.
pub struct G2Ui {
    runtime: ProcId,
    client: Option<RuntimeClient>,
    radius: f64,
    atlas: Rc<RefCell<Atlas>>,
    known: HashMap<TranslatorId, TranslatorProfile>,
    pending: HashMap<u64, usize>,
}

impl std::fmt::Debug for G2Ui {
    fn fmt(&self, f: &mut std::fmt::Formatter<'_>) -> std::fmt::Result {
        f.debug_struct("G2Ui")
            .field("radius", &self.radius)
            .finish_non_exhaustive()
    }
}

impl G2Ui {
    /// Creates the application with the given co-location radius
    /// (meters).
    pub fn new(runtime: ProcId, radius: f64) -> G2Ui {
        G2Ui {
            runtime,
            client: None,
            radius,
            atlas: Rc::new(RefCell::new(Atlas::default())),
            known: HashMap::new(),
            pending: HashMap::new(),
        }
    }

    /// Shared atlas handle; clone before adding the process to a world.
    pub fn atlas_handle(&self) -> Rc<RefCell<Atlas>> {
        Rc::clone(&self.atlas)
    }

    /// Decides what composition, if any, co-locating `a` and `b` yields.
    fn compose(
        a: &TranslatorProfile,
        b: &TranslatorProfile,
    ) -> Option<(GeoKind, PortRef, PortRef)> {
        let (ra, rb) = (infer_role(a), infer_role(b));
        // Order the pair: source first.
        let (kind, src_profile, dst_profile) = match (ra, rb) {
            (GadgetRole::Capture, GadgetRole::Player) => (GeoKind::Geoplay, a, b),
            (GadgetRole::Player, GadgetRole::Capture) => (GeoKind::Geoplay, b, a),
            (GadgetRole::Storage, GadgetRole::Player) => (GeoKind::Geoplay, a, b),
            (GadgetRole::Player, GadgetRole::Storage) => (GeoKind::Geoplay, b, a),
            (GadgetRole::Capture, GadgetRole::Storage) => (GeoKind::Geostore, a, b),
            (GadgetRole::Storage, GadgetRole::Capture) => (GeoKind::Geostore, b, a),
            _ => return None,
        };
        // Storage playing to a player needs an output; check actual port
        // compatibility via Service Shaping.
        let src_shape = src_profile.shape();
        let dst_shape = dst_profile.shape();
        let pairs = src_shape.connectable_to(dst_shape);
        let (out_port, in_port) = pairs.first()?;
        Some((
            kind,
            PortRef::new(src_profile.id(), out_port.name.clone()),
            PortRef::new(dst_profile.id(), in_port.name.clone()),
        ))
    }

    /// Recomputes compositions after any placement change.
    fn recompute(&mut self, ctx: &mut Ctx<'_>) {
        let placements: Vec<(TranslatorProfile, Position)> = self.atlas.borrow().placements.clone();
        // Desired set of compositions.
        let mut desired: Vec<(GeoKind, PortRef, PortRef)> = Vec::new();
        for i in 0..placements.len() {
            for j in (i + 1)..placements.len() {
                let (pa, pos_a) = &placements[i];
                let (pb, pos_b) = &placements[j];
                if pos_a.distance(*pos_b) <= self.radius {
                    if let Some(c) = G2Ui::compose(pa, pb) {
                        desired.push(c);
                    }
                }
            }
        }
        // Tear down compositions no longer wanted.
        let mut to_disconnect = Vec::new();
        {
            let mut atlas = self.atlas.borrow_mut();
            let existing: Vec<GeoComposition> = atlas.compositions.drain(..).collect();
            let mut kept = Vec::new();
            for comp in existing {
                let still = desired
                    .iter()
                    .any(|(k, s, d)| *k == comp.kind && *s == comp.src && *d == comp.dst);
                if still {
                    kept.push(comp);
                } else {
                    if let Some(conn) = comp.connection {
                        to_disconnect.push(conn);
                    }
                    atlas.log.push(format!(
                        "teardown {:?} {} -> {}",
                        comp.kind, comp.src, comp.dst
                    ));
                }
            }
            atlas.compositions = kept;
        }
        let client = self.client.as_mut().expect("client set");
        for conn in to_disconnect {
            client.disconnect(ctx, conn);
        }
        // Establish new ones.
        for (kind, src, dst) in desired {
            let exists = self
                .atlas
                .borrow()
                .compositions
                .iter()
                .any(|c| c.kind == kind && c.src == src && c.dst == dst);
            if exists {
                continue;
            }
            let client = self.client.as_mut().expect("client set");
            let token = client.connect_ports(ctx, src, dst, QosPolicy::unbounded());
            let mut atlas = self.atlas.borrow_mut();
            atlas.log.push(format!("{kind:?} {src} -> {dst}"));
            atlas.compositions.push(GeoComposition {
                kind,
                src,
                dst,
                connection: None,
            });
            self.pending.insert(token, atlas.compositions.len() - 1);
        }
    }

    fn handle_command(&mut self, ctx: &mut Ctx<'_>, cmd: G2Command) {
        match cmd {
            G2Command::Place { name, position } => {
                // The lowest matching id, not the map's per-run first.
                let profile = self
                    .known
                    .values()
                    .filter(|p| p.name().contains(&name))
                    .min_by_key(|p| p.id())
                    .cloned();
                let Some(profile) = profile else {
                    self.atlas
                        .borrow_mut()
                        .log
                        .push(format!("place failed: no gadget named {name:?}"));
                    return;
                };
                {
                    let mut atlas = self.atlas.borrow_mut();
                    if let Some(entry) = atlas
                        .placements
                        .iter_mut()
                        .find(|(p, _)| p.id() == profile.id())
                    {
                        entry.1 = position;
                    } else {
                        atlas.placements.push((profile, position));
                    }
                }
                self.recompute(ctx);
            }
            G2Command::Remove { name } => {
                {
                    let mut atlas = self.atlas.borrow_mut();
                    atlas.placements.retain(|(p, _)| !p.name().contains(&name));
                }
                self.recompute(ctx);
            }
        }
    }
}

impl Process for G2Ui {
    fn name(&self) -> &str {
        "g2ui"
    }

    fn on_start(&mut self, ctx: &mut Ctx<'_>) {
        let client = RuntimeClient::new(self.runtime);
        client.add_listener(ctx, Query::All);
        self.client = Some(client);
    }

    fn on_local(&mut self, ctx: &mut Ctx<'_>, _from: ProcId, msg: LocalMessage) {
        let msg = match msg.downcast::<G2Command>() {
            Ok(cmd) => {
                self.handle_command(ctx, *cmd);
                return;
            }
            Err(original) => original,
        };
        let Ok(event) = msg.downcast::<RuntimeEvent>() else {
            return;
        };
        match *event {
            RuntimeEvent::Directory(DirectoryEvent::Appeared(profile)) => {
                self.known.insert(profile.id(), profile);
            }
            RuntimeEvent::Directory(DirectoryEvent::Disappeared(id)) => {
                self.known.remove(&id);
                {
                    let mut atlas = self.atlas.borrow_mut();
                    atlas.placements.retain(|(p, _)| p.id() != id);
                }
                self.recompute(ctx);
            }
            RuntimeEvent::Connected { token, connection } => {
                if let Some(idx) = self.pending.remove(&token) {
                    if let Some(c) = self.atlas.borrow_mut().compositions.get_mut(idx) {
                        c.connection = Some(connection);
                    }
                }
            }
            RuntimeEvent::ConnectFailed { token, reason } => {
                if let Some(idx) = self.pending.remove(&token) {
                    let mut atlas = self.atlas.borrow_mut();
                    if idx < atlas.compositions.len() {
                        atlas.compositions.remove(idx);
                    }
                    atlas.log.push(format!("composition failed: {reason}"));
                }
            }
            _ => {}
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use umiddle_core::{RuntimeId, Shape};

    fn profile(name: &str, shape: Shape) -> TranslatorProfile {
        TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), 1), name)
            .shape(shape)
            .build()
    }

    #[test]
    fn distance_math() {
        let a = Position::new(0.0, 0.0);
        let b = Position::new(3.0, 4.0);
        assert!((a.distance(b) - 5.0).abs() < 1e-9);
    }

    #[test]
    fn role_inference() {
        let camera = profile(
            "cam",
            Shape::builder()
                .digital(
                    "image-out",
                    Direction::Output,
                    "image/jpeg".parse().unwrap(),
                )
                .build()
                .unwrap(),
        );
        assert_eq!(infer_role(&camera), GadgetRole::Capture);

        let tv = profile(
            "tv",
            Shape::builder()
                .digital("media-in", Direction::Input, "image/*".parse().unwrap())
                .physical(
                    "screen",
                    Direction::Output,
                    PerceptionType::Visible,
                    "screen",
                )
                .build()
                .unwrap(),
        );
        assert_eq!(infer_role(&tv), GadgetRole::Player);

        let album = profile(
            "album",
            Shape::builder()
                .digital("store-in", Direction::Input, "image/*".parse().unwrap())
                .build()
                .unwrap(),
        );
        assert_eq!(infer_role(&album), GadgetRole::Storage);

        let nothing = profile("x", Shape::default());
        assert_eq!(infer_role(&nothing), GadgetRole::Other);
    }

    #[test]
    fn composition_pairs_camera_and_tv_as_geoplay() {
        let camera = profile(
            "cam",
            Shape::builder()
                .digital(
                    "image-out",
                    Direction::Output,
                    "image/jpeg".parse().unwrap(),
                )
                .build()
                .unwrap(),
        );
        let tv = TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), 2), "tv")
            .shape(
                Shape::builder()
                    .digital("media-in", Direction::Input, "image/*".parse().unwrap())
                    .physical(
                        "screen",
                        Direction::Output,
                        PerceptionType::Visible,
                        "screen",
                    )
                    .build()
                    .unwrap(),
            )
            .build();
        let (kind, src, dst) = G2Ui::compose(&camera, &tv).unwrap();
        assert_eq!(kind, GeoKind::Geoplay);
        assert_eq!(src.port, "image-out");
        assert_eq!(dst.port, "media-in");
        // Symmetric argument order gives the same pairing.
        let (kind2, src2, dst2) = G2Ui::compose(&tv, &camera).unwrap();
        assert_eq!((kind2, src2, dst2), (kind, src, dst));
    }

    #[test]
    fn composition_pairs_camera_and_storage_as_geostore() {
        let camera = profile(
            "cam",
            Shape::builder()
                .digital(
                    "image-out",
                    Direction::Output,
                    "image/jpeg".parse().unwrap(),
                )
                .build()
                .unwrap(),
        );
        let album = TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), 3), "album")
            .shape(
                Shape::builder()
                    .digital("store-in", Direction::Input, "image/*".parse().unwrap())
                    .build()
                    .unwrap(),
            )
            .attr("category", "storage")
            .build();
        let (kind, src, dst) = G2Ui::compose(&camera, &album).unwrap();
        assert_eq!(kind, GeoKind::Geostore);
        assert_eq!(src.port, "image-out");
        assert_eq!(dst.port, "store-in");
    }

    #[test]
    fn incompatible_gadgets_do_not_compose() {
        let camera = profile(
            "cam",
            Shape::builder()
                .digital(
                    "image-out",
                    Direction::Output,
                    "image/jpeg".parse().unwrap(),
                )
                .build()
                .unwrap(),
        );
        let speaker = TranslatorProfile::builder(TranslatorId::new(RuntimeId(0), 4), "speaker")
            .shape(
                Shape::builder()
                    .digital("audio-in", Direction::Input, "audio/pcm".parse().unwrap())
                    .physical("sound", Direction::Output, PerceptionType::Audible, "air")
                    .build()
                    .unwrap(),
            )
            .build();
        // Roles suggest geoplay, but no port pair matches: no composition.
        assert!(G2Ui::compose(&camera, &speaker).is_none());
    }
}
