//! Golden wire bytes of every UPnP message kind: SOAP call and result,
//! GENA subscribe/notify/accept, the four SSDP kinds, HTTP heads, the
//! device descriptions of the four bundled devices and one hand-built
//! description with escapes and empty lists. The simulated codec cost is
//! charged by message length, so any byte that moves here moves
//! simulated time too. Each case also reads its golden bytes back.

use platform_upnp::{
    ActionArg, ActionDesc, AirconLogic, ArgDirection, ClockLogic, DeviceDesc, DeviceLogic,
    HttpAccumulator, HttpMessage, HttpRequest, HttpResponse, LightLogic, MediaRendererLogic,
    Notify, ServiceDesc, SoapCall, SoapResult, SsdpMessage, Subscribe,
};
use simnet::{Addr, NodeId};

fn text(bytes: &[u8]) -> &str {
    std::str::from_utf8(bytes).expect("HTTP messages are UTF-8")
}

fn addr(node: usize, port: u16) -> Addr {
    Addr::new(NodeId::from_index(node), port)
}

fn read_request(bytes: &[u8]) -> HttpRequest {
    let mut acc = HttpAccumulator::new();
    acc.push(bytes);
    match acc.take_message() {
        Some(Ok(HttpMessage::Request(r))) => r,
        other => panic!("expected a request, got {other:?}"),
    }
}

#[test]
fn soap_call_bytes() {
    let call = SoapCall::new("SwitchPower", "SetPower")
        .with_arg("Power", "1")
        .with_arg("Note", "<&>\"'")
        .with_arg("Empty", "");
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\"><s:Body><u:SetPower xmlns:u=\"urn:umiddle:service:SwitchPower:1\"><Power>1</Power><Note>&lt;&amp;&gt;\"'</Note><Empty></Empty></u:SetPower></s:Body></s:Envelope>";
    assert_eq!(call.to_xml(), golden);
    assert_eq!(SoapCall::parse(golden), Some(call));

    let bare = SoapCall::new("Clock", "Tick");
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\"><s:Body><u:Tick xmlns:u=\"urn:umiddle:service:Clock:1\"/></s:Body></s:Envelope>";
    assert_eq!(bare.to_xml(), golden);
    assert_eq!(SoapCall::parse(golden), Some(bare));
}

#[test]
fn soap_result_bytes() {
    let ok = SoapResult::Ok {
        action: "GetTime".to_owned(),
        args: vec![
            ("CurrentTime".to_owned(), "12:34 <&>\"".to_owned()),
            ("Empty".to_owned(), String::new()),
        ],
    };
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\"><s:Body><u:GetTimeResponse><CurrentTime>12:34 &lt;&amp;&gt;\"</CurrentTime><Empty></Empty></u:GetTimeResponse></s:Body></s:Envelope>";
    assert_eq!(ok.to_xml(), golden);
    assert_eq!(SoapResult::parse(golden), Some(ok));

    let no_args = SoapResult::Ok {
        action: "SetPower".to_owned(),
        args: Vec::new(),
    };
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\"><s:Body><u:SetPowerResponse/></s:Body></s:Envelope>";
    assert_eq!(no_args.to_xml(), golden);
    assert_eq!(SoapResult::parse(golden), Some(no_args));

    let fault = SoapResult::Fault {
        code: 401,
        description: "Invalid <Action> & \"x\"".to_owned(),
    };
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><s:Envelope xmlns:s=\"http://schemas.xmlsoap.org/soap/envelope/\"><s:Body><s:Fault><faultcode>s:Client</faultcode><faultstring>UPnPError</faultstring><detail><UPnPError><errorCode>401</errorCode><errorDescription>Invalid &lt;Action&gt; &amp; \"x\"</errorDescription></UPnPError></detail></s:Fault></s:Body></s:Envelope>";
    assert_eq!(fault.to_xml(), golden);
    assert_eq!(SoapResult::parse(golden), Some(fault));
}

#[test]
fn gena_bytes() {
    let sub = Subscribe {
        service: "SwitchPower".to_owned(),
        callback: addr(2, 7070),
    };
    let golden =
        "SUBSCRIBE /event/SwitchPower HTTP/1.0\r\ncallback: 2/7070\r\ncontent-length: 0\r\n\r\n";
    assert_eq!(text(&sub.to_request().to_bytes()), golden);
    assert_eq!(
        Subscribe::from_request(&read_request(golden.as_bytes())),
        Some(sub)
    );

    assert_eq!(
        text(&Subscribe::accept(7).to_bytes()),
        "HTTP/1.0 200 OK\r\nsid: uuid:sub-7\r\ncontent-length: 0\r\n\r\n"
    );

    let notify = Notify {
        device: "uuid:42".to_owned(),
        service: "SwitchPower".to_owned(),
        seq: 3,
        changes: vec![
            ("Power".to_owned(), "1".to_owned()),
            ("Note".to_owned(), "<&>\"".to_owned()),
            ("Empty".to_owned(), String::new()),
        ],
    };
    let golden = "NOTIFY /notify/SwitchPower HTTP/1.0\r\nnts: upnp:propchange\r\nseq: 3\r\nx-device: uuid:42\r\ncontent-length: 243\r\n\r\n<?xml version=\"1.0\" encoding=\"utf-8\"?><e:propertyset xmlns:e=\"urn:schemas-upnp-org:event-1-0\"><e:property><Power>1</Power></e:property><e:property><Note>&lt;&amp;&gt;\"</Note></e:property><e:property><Empty></Empty></e:property></e:propertyset>";
    assert_eq!(text(&notify.to_request().to_bytes()), golden);
    assert_eq!(
        Notify::from_request(&read_request(golden.as_bytes())),
        Some(notify)
    );

    let quiet = Notify {
        device: "uuid:42".to_owned(),
        service: "S".to_owned(),
        seq: 0,
        changes: Vec::new(),
    };
    let golden = "NOTIFY /notify/S HTTP/1.0\r\nnts: upnp:propchange\r\nseq: 0\r\nx-device: uuid:42\r\ncontent-length: 95\r\n\r\n<?xml version=\"1.0\" encoding=\"utf-8\"?><e:propertyset xmlns:e=\"urn:schemas-upnp-org:event-1-0\"/>";
    assert_eq!(text(&quiet.to_request().to_bytes()), golden);
    assert_eq!(
        Notify::from_request(&read_request(golden.as_bytes())),
        Some(quiet)
    );
}

#[test]
fn ssdp_bytes() {
    let cases = [
        (
            SsdpMessage::Alive {
                usn: "uuid:1234".to_owned(),
                device_type: "urn:umiddle:device:Clock:1".to_owned(),
                location: addr(3, 5000),
                max_age: 1800,
            },
            "NOTIFY * HTTP/1.1\r\nNTS: ssdp:alive\r\nUSN: uuid:1234\r\nNT: urn:umiddle:device:Clock:1\r\nLOCATION: 3/5000\r\nCACHE-CONTROL: max-age=1800\r\n\r\n",
        ),
        (
            SsdpMessage::ByeBye {
                usn: "uuid:1234".to_owned(),
                device_type: "urn:umiddle:device:Clock:1".to_owned(),
            },
            "NOTIFY * HTTP/1.1\r\nNTS: ssdp:byebye\r\nUSN: uuid:1234\r\nNT: urn:umiddle:device:Clock:1\r\n\r\n",
        ),
        (
            SsdpMessage::MSearch {
                st: "ssdp:all".to_owned(),
                reply_to: addr(0, 6000),
            },
            "M-SEARCH * HTTP/1.1\r\nMAN: \"ssdp:discover\"\r\nST: ssdp:all\r\nREPLY-TO: 0/6000\r\n\r\n",
        ),
        (
            SsdpMessage::SearchResponse {
                usn: "uuid:5678".to_owned(),
                device_type: "urn:umiddle:device:BinaryLight:1".to_owned(),
                location: addr(1, 5000),
                max_age: 120,
            },
            "HTTP/1.1 200 OK\r\nUSN: uuid:5678\r\nST: urn:umiddle:device:BinaryLight:1\r\nLOCATION: 1/5000\r\nCACHE-CONTROL: max-age=120\r\n\r\n",
        ),
    ];
    for (msg, golden) in cases {
        assert_eq!(text(&msg.to_bytes()), golden);
        assert_eq!(SsdpMessage::parse(golden.as_bytes()), Some(msg));
    }
}

#[test]
fn http_head_bytes() {
    // Headers are written lowercased in sorted order (a repeated key
    // keeps its last value), then the derived `content-length`.
    let req = HttpRequest::new("POST", "/control")
        .with_header("SOAPAction", "\"urn:svc#SetPower\"")
        .with_header("z-last", "z")
        .with_header("a-first", "")
        .with_header("x", "1")
        .with_header("X", "2")
        .with_body(b"<xml/>".to_vec());
    let golden = "POST /control HTTP/1.0\r\na-first: \r\nsoapaction: \"urn:svc#SetPower\"\r\nx: 2\r\nz-last: z\r\ncontent-length: 6\r\n\r\n<xml/>";
    assert_eq!(text(&req.to_bytes()), golden);
    let back = read_request(golden.as_bytes());
    assert_eq!(back.to_string(), "POST /control (6B)");
    assert_eq!(back.header("SOAPACTION"), Some("\"urn:svc#SetPower\""));
    assert_eq!(back.header("a-first"), Some(""));
    assert_eq!(back.header("x"), Some("2"));
    assert_eq!(back.body, b"<xml/>");

    assert_eq!(
        text(&HttpRequest::new("GET", "/description.xml").to_bytes()),
        "GET /description.xml HTTP/1.0\r\ncontent-length: 0\r\n\r\n"
    );
    let cases = [
        (
            HttpResponse::xml("<root>hello</root>".to_owned()),
            "HTTP/1.0 200 OK\r\ncontent-type: text/xml; charset=\"utf-8\"\r\ncontent-length: 18\r\n\r\n<root>hello</root>",
        ),
        (
            HttpResponse::new(404),
            "HTTP/1.0 404 Not Found\r\ncontent-length: 0\r\n\r\n",
        ),
        (
            HttpResponse::new(412).with_header("Retry", "never"),
            "HTTP/1.0 412 Precondition Failed\r\nretry: never\r\ncontent-length: 0\r\n\r\n",
        ),
        (
            HttpResponse::new(999),
            "HTTP/1.0 999 Unknown\r\ncontent-length: 0\r\n\r\n",
        ),
    ];
    for (resp, golden) in cases {
        assert_eq!(text(&resp.to_bytes()), golden);
        let mut acc = HttpAccumulator::new();
        acc.push(golden.as_bytes());
        match acc.take_message() {
            Some(Ok(HttpMessage::Response(r))) => {
                assert_eq!(r.status, resp.status);
                assert_eq!(r.header("content-type"), resp.header("content-type"));
                assert_eq!(r.body, resp.body);
            }
            other => panic!("expected a response, got {other:?}"),
        }
    }
}

#[test]
fn device_description_bytes() {
    let desc = LightLogic::new("Hall <Light> & \"x\"", "uuid:42").description();
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><root xmlns=\"urn:schemas-upnp-org:device-1-0\"><device><deviceType>urn:umiddle:device:BinaryLight:1</deviceType><friendlyName>Hall &lt;Light&gt; &amp; \"x\"</friendlyName><UDN>uuid:42</UDN><serviceList><service serviceType=\"SwitchPower\"><actionList><action><name>SetPower</name><argumentList><argument><name>Power</name><direction>in</direction><relatedStateVariable>Power</relatedStateVariable></argument></argumentList></action><action><name>GetPower</name><argumentList><argument><name>Power</name><direction>out</direction><relatedStateVariable>Power</relatedStateVariable></argument></argumentList></action></actionList><serviceStateTable><stateVariable sendEvents=\"yes\"><name>Power</name><defaultValue>0</defaultValue></stateVariable></serviceStateTable></service></serviceList></device></root>";
    assert_eq!(desc.to_xml(), golden);
    assert_eq!(DeviceDesc::parse(golden), Some(desc));

    let cases = [
        (
            ClockLogic::new("Kitchen Clock", "uuid:clock-1").description(),
            "<?xml version=\"1.0\" encoding=\"utf-8\"?><root xmlns=\"urn:schemas-upnp-org:device-1-0\"><device><deviceType>urn:umiddle:device:Clock:1</deviceType><friendlyName>Kitchen Clock</friendlyName><UDN>uuid:clock-1</UDN><serviceList><service serviceType=\"TimeKeeping\"><actionList><action><name>SetTime</name><argumentList><argument><name>NewTime</name><direction>in</direction><relatedStateVariable>Time</relatedStateVariable></argument></argumentList></action><action><name>GetTime</name><argumentList><argument><name>CurrentTime</name><direction>out</direction><relatedStateVariable>Time</relatedStateVariable></argument></argumentList></action><action><name>SetDate</name><argumentList><argument><name>NewDate</name><direction>in</direction><relatedStateVariable>Date</relatedStateVariable></argument></argumentList></action><action><name>GetDate</name><argumentList><argument><name>CurrentDate</name><direction>out</direction><relatedStateVariable>Date</relatedStateVariable></argument></argumentList></action><action><name>SetTimeZone</name><argumentList><argument><name>NewTimeZone</name><direction>in</direction><relatedStateVariable>TimeZone</relatedStateVariable></argument></argumentList></action><action><name>SetFormat</name><argumentList><argument><name>Format</name><direction>in</direction><relatedStateVariable>Format</relatedStateVariable></argument></argumentList></action></actionList><serviceStateTable><stateVariable sendEvents=\"yes\"><name>Time</name><defaultValue>00:00:00</defaultValue></stateVariable><stateVariable sendEvents=\"yes\"><name>Date</name><defaultValue>2006-01-01</defaultValue></stateVariable><stateVariable sendEvents=\"no\"><name>TimeZone</name><defaultValue>UTC</defaultValue></stateVariable><stateVariable sendEvents=\"no\"><name>Format</name><defaultValue>24h</defaultValue></stateVariable><stateVariable sendEvents=\"yes\"><name>Tick</name><defaultValue>0</defaultValue></stateVariable></serviceStateTable></service><service serviceType=\"Alarm\"><actionList><action><name>SetAlarm</name><argumentList><argument><name>AlarmTime</name><direction>in</direction><relatedStateVariable>AlarmTime</relatedStateVariable></argument></argumentList></action><action><name>SetAlarmEnabled</name><argumentList><argument><name>Enabled</name><direction>in</direction><relatedStateVariable>AlarmEnabled</relatedStateVariable></argument></argumentList></action></actionList><serviceStateTable><stateVariable sendEvents=\"yes\"><name>AlarmTime</name><defaultValue></defaultValue></stateVariable><stateVariable sendEvents=\"no\"><name>AlarmEnabled</name><defaultValue>0</defaultValue></stateVariable></serviceStateTable></service></serviceList></device></root>",
        ),
        (
            AirconLogic::new("Den AC", "uuid:ac-1").description(),
            "<?xml version=\"1.0\" encoding=\"utf-8\"?><root xmlns=\"urn:schemas-upnp-org:device-1-0\"><device><deviceType>urn:umiddle:device:AirConditioner:1</deviceType><friendlyName>Den AC</friendlyName><UDN>uuid:ac-1</UDN><serviceList><service serviceType=\"Hvac\"><actionList><action><name>SetMode</name><argumentList><argument><name>Mode</name><direction>in</direction><relatedStateVariable>Mode</relatedStateVariable></argument></argumentList></action><action><name>SetTarget</name><argumentList><argument><name>Target</name><direction>in</direction><relatedStateVariable>Target</relatedStateVariable></argument></argumentList></action><action><name>GetTemperature</name><argumentList><argument><name>Temperature</name><direction>out</direction><relatedStateVariable>Temperature</relatedStateVariable></argument></argumentList></action></actionList><serviceStateTable><stateVariable sendEvents=\"yes\"><name>Mode</name><defaultValue>off</defaultValue></stateVariable><stateVariable sendEvents=\"no\"><name>Target</name><defaultValue>22</defaultValue></stateVariable><stateVariable sendEvents=\"yes\"><name>Temperature</name><defaultValue>25</defaultValue></stateVariable></serviceStateTable></service></serviceList></device></root>",
        ),
        (
            MediaRendererLogic::new("Living Room TV", "uuid:tv-1").description(),
            "<?xml version=\"1.0\" encoding=\"utf-8\"?><root xmlns=\"urn:schemas-upnp-org:device-1-0\"><device><deviceType>urn:umiddle:device:MediaRenderer:1</deviceType><friendlyName>Living Room TV</friendlyName><UDN>uuid:tv-1</UDN><serviceList><service serviceType=\"AVTransport\"><actionList><action><name>RenderMedia</name><argumentList><argument><name>Media</name><direction>in</direction><relatedStateVariable>FramesShown</relatedStateVariable></argument></argumentList></action><action><name>SetTransportState</name><argumentList><argument><name>State</name><direction>in</direction><relatedStateVariable>TransportState</relatedStateVariable></argument></argumentList></action></actionList><serviceStateTable><stateVariable sendEvents=\"yes\"><name>TransportState</name><defaultValue>STOPPED</defaultValue></stateVariable><stateVariable sendEvents=\"yes\"><name>FramesShown</name><defaultValue>0</defaultValue></stateVariable></serviceStateTable></service></serviceList></device></root>",
        ),
        (odd_description(), "<?xml version=\"1.0\" encoding=\"utf-8\"?><root xmlns=\"urn:schemas-upnp-org:device-1-0\"><device><deviceType>urn:x:&lt;Odd&gt;&amp;\"Device\":1</deviceType><friendlyName>Odd &amp; &lt;Co&gt; \"q\" 'a'</friendlyName><UDN>uuid:odd&amp;1</UDN><serviceList><service serviceType=\"Ctl&lt;&amp;&gt;&quot;\"><actionList><action><name>Reset</name><argumentList/></action><action><name>Set&lt;&amp;&gt;</name><argumentList><argument><name>A&amp;\"b\"</name><direction>in</direction><relatedStateVariable>V&lt;1&gt;</relatedStateVariable></argument><argument><name>Out</name><direction>out</direction><relatedStateVariable>V&lt;1&gt;</relatedStateVariable></argument></argumentList></action></actionList><serviceStateTable><stateVariable sendEvents=\"no\"><name>V&lt;1&gt;</name><defaultValue></defaultValue></stateVariable><stateVariable sendEvents=\"no\"><name>Quiet</name><defaultValue>a&amp;b</defaultValue></stateVariable><stateVariable sendEvents=\"yes\"><name>Loud</name><defaultValue>&lt;x&gt;</defaultValue></stateVariable></serviceStateTable></service><service serviceType=\"Idle\"><actionList/><serviceStateTable><stateVariable sendEvents=\"no\"><name>Only</name><defaultValue></defaultValue></stateVariable></serviceStateTable></service><service serviceType=\"Empty\"><actionList/><serviceStateTable/></service></serviceList></device></root>"),
    ];
    for (desc, golden) in cases {
        assert_eq!(desc.to_xml(), golden);
        assert_eq!(DeviceDesc::parse(golden), Some(desc));
    }
}

/// Escapes in every name, an action with no arguments, services with no
/// actions or no state variables, unevented variables and empty default
/// values.
fn odd_description() -> DeviceDesc {
    let arg = |name: &str, direction| ActionArg {
        name: name.to_owned(),
        direction,
        related_statevar: "V<1>".to_owned(),
    };
    DeviceDesc::new(
        "urn:x:<Odd>&\"Device\":1",
        "Odd & <Co> \"q\" 'a'",
        "uuid:odd&1",
    )
    .with_service(
        ServiceDesc::new("Ctl<&>\"")
            .with_action(ActionDesc {
                name: "Reset".to_owned(),
                args: Vec::new(),
            })
            .with_action(ActionDesc {
                name: "Set<&>".to_owned(),
                args: vec![
                    arg("A&\"b\"", ArgDirection::In),
                    arg("Out", ArgDirection::Out),
                ],
            })
            .with_statevar("V<1>", false, "")
            .with_statevar("Quiet", false, "a&b")
            .with_statevar("Loud", true, "<x>"),
    )
    .with_service(ServiceDesc::new("Idle").with_statevar("Only", false, ""))
    .with_service(ServiceDesc::new("Empty"))
}
