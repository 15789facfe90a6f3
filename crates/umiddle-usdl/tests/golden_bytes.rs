//! Golden bytes of `UsdlDocument::to_xml` for every bundled document
//! and for one document with escaped attribute values, an empty
//! `<bind/>` and a physical port. A written document is read back by
//! mappers and registries, so its bytes are pinned; each case also reads
//! its golden bytes back to the same document.

use umiddle_usdl::{builtin, UsdlDocument};

/// `(name, source, golden)` for each bundled document, in
/// [`builtin::BUNDLED_DOCUMENTS`] order.
const BUNDLED: [(&str, &str, &str); 13] = [
    (
        "UPNP_LIGHT",
        builtin::UPNP_LIGHT,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"urn:umiddle:device:BinaryLight:1\" platform=\"upnp\" name=\"UPnP Light\"><translator generic=\"upnp\"/><attr key=\"category\" value=\"lighting\"/><port name=\"switch-on\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetPower\" argument=\"Power\" service=\"SwitchPower\" value=\"1\"/></port><port name=\"switch-off\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetPower\" argument=\"Power\" service=\"SwitchPower\" value=\"0\"/></port><port name=\"power-state\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"SwitchPower\" statevar=\"Power\"/></port><port name=\"light\" direction=\"output\" kind=\"physical\" perception=\"visible\" media=\"air\"/></usdl>",
    ),
    (
        "UPNP_CLOCK",
        builtin::UPNP_CLOCK,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"urn:umiddle:device:Clock:1\" platform=\"upnp\" name=\"UPnP Clock\"><translator generic=\"upnp\"/><attr key=\"category\" value=\"time\"/><port name=\"set-time\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetTime\" argument=\"NewTime\" service=\"TimeKeeping\"/></port><port name=\"time\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"TimeKeeping\" statevar=\"Time\"/></port><port name=\"set-date\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetDate\" argument=\"NewDate\" service=\"TimeKeeping\"/></port><port name=\"date\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"TimeKeeping\" statevar=\"Date\"/></port><port name=\"set-timezone\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetTimeZone\" argument=\"NewTimeZone\" service=\"TimeKeeping\"/></port><port name=\"timezone\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"TimeKeeping\" statevar=\"TimeZone\"/></port><port name=\"set-alarm\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetAlarm\" argument=\"AlarmTime\" service=\"Alarm\"/></port><port name=\"alarm\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"Alarm\" statevar=\"AlarmTime\"/></port><port name=\"alarm-enable\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetAlarmEnabled\" argument=\"Enabled\" service=\"Alarm\"/></port><port name=\"set-format\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetFormat\" argument=\"Format\" service=\"TimeKeeping\"/></port><port name=\"format\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"TimeKeeping\" statevar=\"Format\"/></port><port name=\"tick\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"TimeKeeping\" statevar=\"Tick\"/></port><port name=\"display\" direction=\"output\" kind=\"physical\" perception=\"visible\" media=\"screen\"/><port name=\"alarm-ring\" direction=\"output\" kind=\"physical\" perception=\"audible\" media=\"air\"/></usdl>",
    ),
    (
        "UPNP_AIRCON",
        builtin::UPNP_AIRCON,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"urn:umiddle:device:AirConditioner:1\" platform=\"upnp\" name=\"UPnP Air Conditioner\"><translator generic=\"upnp\"/><attr key=\"category\" value=\"hvac\"/><port name=\"set-mode\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetMode\" argument=\"Mode\" service=\"Hvac\"/></port><port name=\"set-temperature\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetTarget\" argument=\"Target\" service=\"Hvac\"/></port><port name=\"temperature\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"Hvac\" statevar=\"Temperature\"/></port><port name=\"mode\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"Hvac\" statevar=\"Mode\"/></port><port name=\"airflow\" direction=\"output\" kind=\"physical\" perception=\"tangible\" media=\"air\"/></usdl>",
    ),
    (
        "UPNP_MEDIA_RENDERER",
        builtin::UPNP_MEDIA_RENDERER,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"urn:umiddle:device:MediaRenderer:1\" platform=\"upnp\" name=\"UPnP MediaRenderer TV\"><translator generic=\"upnp\"/><attr key=\"category\" value=\"av\"/><port name=\"media-in\" direction=\"input\" kind=\"digital\" mime=\"image/*\"><bind action=\"RenderMedia\" argument=\"Media\" service=\"AVTransport\"/></port><port name=\"play-control\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind action=\"SetTransportState\" argument=\"State\" service=\"AVTransport\"/></port><port name=\"transport-state\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind service=\"AVTransport\" statevar=\"TransportState\"/></port><port name=\"screen\" direction=\"output\" kind=\"physical\" perception=\"visible\" media=\"screen\"/><port name=\"speaker\" direction=\"output\" kind=\"physical\" perception=\"audible\" media=\"air\"/></usdl>",
    ),
    (
        "BT_BIP_CAMERA",
        builtin::BT_BIP_CAMERA,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"bip-camera\" platform=\"bluetooth\" name=\"BIP Camera\"><translator generic=\"bluetooth-bip\"/><attr key=\"category\" value=\"imaging\"/><port name=\"image-out\" direction=\"output\" kind=\"digital\" mime=\"image/jpeg\"><bind obex=\"get\" operation=\"ImagePull\"/></port><port name=\"capture\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind obex=\"put\" operation=\"RemoteShutter\"/></port><port name=\"viewfinder\" direction=\"output\" kind=\"physical\" perception=\"visible\" media=\"screen\"/></usdl>",
    ),
    (
        "BT_BIP_PRINTER",
        builtin::BT_BIP_PRINTER,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"bip-printer\" platform=\"bluetooth\" name=\"BIP Photo Printer\"><translator generic=\"bluetooth-bip\"/><attr key=\"category\" value=\"imaging\"/><port name=\"image-in\" direction=\"input\" kind=\"digital\" mime=\"image/jpeg\"><bind obex=\"put\" operation=\"ImagePush\"/></port><port name=\"print\" direction=\"output\" kind=\"physical\" perception=\"visible\" media=\"paper\"/></usdl>",
    ),
    (
        "BT_HIDP_MOUSE",
        builtin::BT_HIDP_MOUSE,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"hidp-mouse\" platform=\"bluetooth\" name=\"HIDP Mouse\"><translator generic=\"bluetooth-hidp\"/><attr key=\"category\" value=\"input\"/><port name=\"pointer\" direction=\"output\" kind=\"digital\" mime=\"application/vml\"><bind report=\"motion\"/></port><port name=\"clicks\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind report=\"button\"/></port><port name=\"grip\" direction=\"input\" kind=\"physical\" perception=\"tangible\" media=\"hand\"/></usdl>",
    ),
    (
        "RMI_ECHO",
        builtin::RMI_ECHO,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"EchoService\" platform=\"rmi\" name=\"RMI Echo Service\"><translator generic=\"rmi\"/><port name=\"request\" direction=\"input\" kind=\"digital\" mime=\"application/octet-stream\"><bind method=\"echo\"/></port><port name=\"response\" direction=\"output\" kind=\"digital\" mime=\"application/octet-stream\"><bind method=\"echo\" result=\"true\"/></port></usdl>",
    ),
    (
        "MB_SOURCE",
        builtin::MB_SOURCE,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"mb-source\" platform=\"mediabroker\" name=\"MediaBroker Source\"><translator generic=\"mediabroker\"/><port name=\"media-out\" direction=\"output\" kind=\"digital\" mime=\"application/octet-stream\"><bind channel=\"produce\"/></port></usdl>",
    ),
    (
        "MB_SINK",
        builtin::MB_SINK,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"mb-sink\" platform=\"mediabroker\" name=\"MediaBroker Sink\"><translator generic=\"mediabroker\"/><port name=\"media-in\" direction=\"input\" kind=\"digital\" mime=\"application/octet-stream\"><bind channel=\"consume\"/></port></usdl>",
    ),
    (
        "MOTE_SENSOR",
        builtin::MOTE_SENSOR,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"sensor-mote\" platform=\"motes\" name=\"Sensor Mote\"><translator generic=\"motes\"/><attr key=\"category\" value=\"sensing\"/><port name=\"temperature\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind am-type=\"10\" field=\"temperature\"/></port><port name=\"light-level\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind am-type=\"10\" field=\"light\"/></port><port name=\"sampling\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind am-type=\"11\" field=\"interval\"/></port></usdl>",
    ),
    (
        "WS_LOGGER",
        builtin::WS_LOGGER,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"logger\" platform=\"webservices\" name=\"Event Log Service\"><translator generic=\"webservices\"/><port name=\"log-in\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind operation=\"append\"/></port><port name=\"entries\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind operation=\"tail\"/></port></usdl>",
    ),
    (
        "WS_WEATHER",
        builtin::WS_WEATHER,
        "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"weather\" platform=\"webservices\" name=\"Weather Service\"><translator generic=\"webservices\"/><port name=\"conditions\" direction=\"output\" kind=\"digital\" mime=\"text/plain\"><bind operation=\"current\"/></port><port name=\"set-location\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind operation=\"locate\"/></port></usdl>",
    ),
];

/// Escapes in every kind of attribute, an empty binding, a binding with
/// `<>&"'` in its values and a physical port.
const ODD: &str = r#"<usdl device="urn:x:&lt;Odd&gt;:1" platform="upnp" name="A &amp; &quot;B&quot; 'c' &lt;d&gt;">
  <translator generic="up&amp;np"/>
  <attr key="note" value="&lt;&gt;&amp;&quot;'"/>
  <port name="in" kind="digital" direction="input" mime="text/plain">
    <bind/>
    <bind action="Set&lt;&gt;" value="&quot;1&quot; &amp; '2'"/>
  </port>
  <port name="light" kind="physical" direction="output" perception="visible" media="a&amp;ir"/>
</usdl>"#;

const ODD_GOLDEN: &str = "<?xml version=\"1.0\" encoding=\"utf-8\"?><usdl device=\"urn:x:&lt;Odd&gt;:1\" platform=\"upnp\" name=\"A &amp; &quot;B&quot; 'c' &lt;d&gt;\"><translator generic=\"up&amp;np\"/><attr key=\"note\" value=\"&lt;&gt;&amp;&quot;'\"/><port name=\"in\" direction=\"input\" kind=\"digital\" mime=\"text/plain\"><bind/><bind action=\"Set&lt;&gt;\" value=\"&quot;1&quot; &amp; '2'\"/></port><port name=\"light\" direction=\"output\" kind=\"physical\" perception=\"visible\" media=\"a&amp;ir\"/></usdl>";

fn check(name: &str, source: &str, golden: &str) {
    let doc = UsdlDocument::parse(source).unwrap_or_else(|e| panic!("{name}: {e}"));
    assert_eq!(doc.to_xml(), golden, "{name}");
    assert_eq!(UsdlDocument::parse(golden).as_ref(), Ok(&doc), "{name}");
}

#[test]
fn bundled_document_bytes() {
    assert_eq!(
        BUNDLED.map(|(_, source, _)| source),
        builtin::BUNDLED_DOCUMENTS,
        "one golden per bundled document, in order"
    );
    for (name, source, golden) in BUNDLED {
        check(name, source, golden);
    }
}

#[test]
fn escaped_document_bytes() {
    check("ODD", ODD, ODD_GOLDEN);
    let doc = UsdlDocument::parse(ODD).unwrap();
    let bindings = &doc.port("in").unwrap().bindings;
    assert!(bindings[0].is_empty());
    assert_eq!(bindings[1].get("value"), Some("\"1\" & '2'"));
    assert_eq!(doc.name(), "A & \"B\" 'c' <d>");
}
