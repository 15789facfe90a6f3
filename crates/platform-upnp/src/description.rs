//! UPnP device and service descriptions.
//!
//! A UPnP device exposes an XML *device description* (friendly name, type
//! URN, UDN, service list) and, per service, an SCPD-style *service
//! description* (actions with arguments, evented state variables). This
//! module models both and their XML forms; the emulated device serves
//! them over HTTP, and the mapper fetches and parses them to build
//! translators — the dominant cost in the paper's Figure 10. Both are
//! read in place from one `XmlReader` pass and written field by field
//! through one `XmlWriter`.

use umiddle_usdl::{StartTag, XmlError, XmlReader, XmlWriter};

/// Direction of a SOAP action argument.
#[derive(Debug, Clone, Copy, PartialEq, Eq)]
pub enum ArgDirection {
    /// Caller supplies the value.
    In,
    /// Device returns the value.
    Out,
}

/// One argument of an action.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionArg {
    /// Argument name.
    pub name: String,
    /// In or out.
    pub direction: ArgDirection,
    /// The related state variable's name.
    pub related_statevar: String,
}

/// One action of a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ActionDesc {
    /// Action name (`SetPower`).
    pub name: String,
    /// Arguments in declaration order.
    pub args: Vec<ActionArg>,
}

/// One state variable of a service.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct StateVarDesc {
    /// Variable name (`Power`).
    pub name: String,
    /// Whether changes are evented via GENA.
    pub send_events: bool,
    /// Initial value.
    pub initial: String,
}

/// A service description (type, id, actions, state variables).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ServiceDesc {
    /// Service type URN segment (`SwitchPower`).
    pub service_type: String,
    /// Actions.
    pub actions: Vec<ActionDesc>,
    /// State variables.
    pub state_vars: Vec<StateVarDesc>,
}

impl ServiceDesc {
    /// Creates an empty service.
    pub fn new(service_type: &str) -> ServiceDesc {
        ServiceDesc {
            service_type: service_type.to_owned(),
            actions: Vec::new(),
            state_vars: Vec::new(),
        }
    }

    /// Adds an action (builder style).
    pub fn with_action(mut self, action: ActionDesc) -> ServiceDesc {
        self.actions.push(action);
        self
    }

    /// Adds a state variable (builder style).
    pub fn with_statevar(mut self, name: &str, send_events: bool, initial: &str) -> ServiceDesc {
        self.state_vars.push(StateVarDesc {
            name: name.to_owned(),
            send_events,
            initial: initial.to_owned(),
        });
        self
    }

    /// Looks up an action by name.
    pub fn action(&self, name: &str) -> Option<&ActionDesc> {
        self.actions.iter().find(|a| a.name == name)
    }

    /// Writes the `<service>` element (the inline SCPD).
    fn write(&self, w: &mut XmlWriter) {
        w.markup("<service")
            .attr("serviceType", &self.service_type)
            .markup(">");
        write_list(w, "actionList", &self.actions, |w, a| {
            w.markup("<action>").leaf("name", &a.name);
            write_list(w, "argumentList", &a.args, |w, arg| {
                let direction = match arg.direction {
                    ArgDirection::In => "in",
                    ArgDirection::Out => "out",
                };
                w.markup("<argument>")
                    .leaf("name", &arg.name)
                    .leaf("direction", direction)
                    .leaf("relatedStateVariable", &arg.related_statevar)
                    .markup("</argument>");
            });
            w.markup("</action>");
        });
        write_list(w, "serviceStateTable", &self.state_vars, |w, v| {
            w.markup("<stateVariable")
                .attr("sendEvents", if v.send_events { "yes" } else { "no" })
                .markup(">")
                .leaf("name", &v.name)
                .leaf("defaultValue", &v.initial)
                .markup("</stateVariable>");
        });
        w.markup("</service>");
    }

    /// Right after a `<service>` start tag: the service, read through
    /// its end tag.
    fn read(r: &mut XmlReader<'_>, tag: StartTag<'_>) -> Result<ServiceDesc, XmlError> {
        let service_type = required(tag.attr("serviceType"))?.into_owned();
        let (mut actions, mut vars) = (None, None);
        r.read_children(|r, tag| match tag.local_name() {
            "actionList" => r.read_first(&mut actions, |r| r.read_list("action", read_action)),
            "serviceStateTable" => r.read_first(&mut vars, |r| {
                r.read_list("stateVariable", |r, tag| {
                    let [name, initial] = r.read_leaves(["name", "defaultValue"])?;
                    Ok(StateVarDesc {
                        name: required(name)?,
                        send_events: tag.attr("sendEvents").is_some_and(|v| v == "yes"),
                        initial: initial.unwrap_or_default(),
                    })
                })
            }),
            _ => Ok(false),
        })?;
        Ok(ServiceDesc {
            service_type,
            actions: actions.unwrap_or_default(),
            state_vars: vars.unwrap_or_default(),
        })
    }
}

/// A full device description.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct DeviceDesc {
    /// Device type URN (`urn:umiddle:device:Clock:1`).
    pub device_type: String,
    /// Human-readable name (`Kitchen Clock`).
    pub friendly_name: String,
    /// Unique device name (`uuid:...`).
    pub udn: String,
    /// Services.
    pub services: Vec<ServiceDesc>,
}

impl DeviceDesc {
    /// Creates a device description.
    pub fn new(device_type: &str, friendly_name: &str, udn: &str) -> DeviceDesc {
        DeviceDesc {
            device_type: device_type.to_owned(),
            friendly_name: friendly_name.to_owned(),
            udn: udn.to_owned(),
            services: Vec::new(),
        }
    }

    /// Adds a service (builder style).
    pub fn with_service(mut self, service: ServiceDesc) -> DeviceDesc {
        self.services.push(service);
        self
    }

    /// Finds the service owning an action.
    pub fn service_for_action(&self, action: &str) -> Option<&ServiceDesc> {
        self.services.iter().find(|s| s.action(action).is_some())
    }

    /// Finds a service by type segment.
    pub fn service(&self, service_type: &str) -> Option<&ServiceDesc> {
        self.services
            .iter()
            .find(|s| s.service_type == service_type)
    }

    /// Serializes the full description document (device + inline SCPDs,
    /// like the single-fetch layout CyberLink's samples use).
    pub fn to_xml(&self) -> String {
        let mut w = XmlWriter::document(1024 * (1 + self.services.len()));
        w.markup("<root")
            .attr("xmlns", "urn:schemas-upnp-org:device-1-0")
            .markup("><device>")
            .leaf("deviceType", &self.device_type)
            .leaf("friendlyName", &self.friendly_name)
            .leaf("UDN", &self.udn);
        write_list(&mut w, "serviceList", &self.services, |w, s| s.write(w));
        w.markup("</device></root>");
        w.finish()
    }

    /// Parses a description document in one pass: the first `device` in
    /// document order, the root included. Each part is the first child
    /// of its name; all but the lists are required.
    pub fn parse(xml: &str) -> Option<DeviceDesc> {
        XmlReader::new(xml)
            .read_descendant("device", |r, _| read_device(r))
            .ok()?
    }
}

/// Right after a `<device>` start tag: the device, read through its end
/// tag.
fn read_device(r: &mut XmlReader<'_>) -> Result<DeviceDesc, XmlError> {
    let [mut device_type, mut friendly_name, mut udn] = [None, None, None];
    let mut services = None;
    r.read_children(|r, tag| match tag.local_name() {
        "deviceType" => r.read_first(&mut device_type, XmlReader::read_text),
        "friendlyName" => r.read_first(&mut friendly_name, XmlReader::read_text),
        "UDN" => r.read_first(&mut udn, XmlReader::read_text),
        "serviceList" => r.read_first(&mut services, |r| r.read_list("service", ServiceDesc::read)),
        _ => Ok(false),
    })?;
    Ok(DeviceDesc {
        device_type: required(device_type)?,
        friendly_name: required(friendly_name)?,
        udn: required(udn)?,
        services: services.unwrap_or_default(),
    })
}

/// Right after an `<action>` start tag: the action, read through its end
/// tag.
fn read_action(r: &mut XmlReader<'_>, _: StartTag<'_>) -> Result<ActionDesc, XmlError> {
    let (mut name, mut args) = (None, None);
    r.read_children(|r, tag| match tag.local_name() {
        "name" => r.read_first(&mut name, XmlReader::read_text),
        "argumentList" => r.read_first(&mut args, |r| {
            r.read_list("argument", |r, _| {
                let [name, direction, statevar] =
                    r.read_leaves(["name", "direction", "relatedStateVariable"])?;
                Ok(ActionArg {
                    name: required(name)?,
                    direction: match required(direction)?.as_str() {
                        "in" => ArgDirection::In,
                        _ => ArgDirection::Out,
                    },
                    related_statevar: required(statevar)?,
                })
            })
        }),
        _ => Ok(false),
    })?;
    Ok(ActionDesc {
        name: required(name)?,
        args: args.unwrap_or_default(),
    })
}

/// A part the description must hold: without it, `parse` rejects it.
fn required<T>(part: Option<T>) -> Result<T, XmlError> {
    part.ok_or_else(|| XmlError {
        offset: 0,
        message: "description misses a required part".to_owned(),
    })
}

/// Writes `<name>` with one child per item, or `<name/>` when there are
/// none.
fn write_list<T>(w: &mut XmlWriter, name: &str, items: &[T], item: impl Fn(&mut XmlWriter, &T)) {
    w.markup("<").markup(name);
    if items.is_empty() {
        w.markup("/>");
        return;
    }
    w.markup(">");
    for i in items {
        item(w, i);
    }
    w.markup("</").markup(name).markup(">");
}

#[cfg(test)]
mod tests {
    use super::*;

    fn sample() -> DeviceDesc {
        DeviceDesc::new("urn:umiddle:device:BinaryLight:1", "Hall Light", "uuid:42").with_service(
            ServiceDesc::new("SwitchPower")
                .with_action(ActionDesc {
                    name: "SetPower".to_owned(),
                    args: vec![ActionArg {
                        name: "Power".to_owned(),
                        direction: ArgDirection::In,
                        related_statevar: "Power".to_owned(),
                    }],
                })
                .with_statevar("Power", true, "0"),
        )
    }

    #[test]
    fn description_round_trip() {
        let desc = sample();
        let xml = desc.to_xml();
        let back = DeviceDesc::parse(&xml).unwrap();
        assert_eq!(desc, back);
    }

    #[test]
    fn lookup_helpers() {
        let desc = sample();
        assert!(desc.service("SwitchPower").is_some());
        assert!(desc.service("Nope").is_none());
        assert_eq!(
            desc.service_for_action("SetPower").unwrap().service_type,
            "SwitchPower"
        );
        assert!(desc.service_for_action("GetTime").is_none());
    }

    #[test]
    fn malformed_description_rejected() {
        assert!(DeviceDesc::parse("<root/>").is_none());
        assert!(DeviceDesc::parse("not xml").is_none());
    }
}
