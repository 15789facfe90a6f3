//! Golden bytes of every web-services message kind: XML-RPC calls with
//! and without params, values, faults and the service description.
//! Each case also reads its golden bytes back.

use platform_webservices::{MethodCall, MethodResponse, ServiceDescription};

#[test]
fn method_call_bytes() {
    let call = MethodCall::new("append", vec!["x<y & \"z\"".to_owned(), String::new()]);
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><methodCall><methodName>append</methodName><params><param><value>x&lt;y &amp; \"z\"</value></param><param><value></value></param></params></methodCall>";
    assert_eq!(call.to_xml(), golden);
    assert_eq!(MethodCall::parse(golden), Some(call));

    let bare = MethodCall::new("tail", Vec::new());
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><methodCall><methodName>tail</methodName><params/></methodCall>";
    assert_eq!(bare.to_xml(), golden);
    assert_eq!(MethodCall::parse(golden), Some(bare));
}

#[test]
fn method_response_bytes() {
    let cases = [
        (
            MethodResponse::Value("a\nb <&> \"q\"".to_owned()),
            "<?xml version=\"1.0\" encoding=\"utf-8\"?><methodResponse><params><param><value>a\nb &lt;&amp;&gt; \"q\"</value></param></params></methodResponse>",
        ),
        (
            MethodResponse::Value(String::new()),
            "<?xml version=\"1.0\" encoding=\"utf-8\"?><methodResponse><params><param><value></value></param></params></methodResponse>",
        ),
        (
            MethodResponse::Fault {
                code: -404,
                message: "no & such <op>".to_owned(),
            },
            "<?xml version=\"1.0\" encoding=\"utf-8\"?><methodResponse><fault><faultCode>-404</faultCode><faultString>no &amp; such &lt;op&gt;</faultString></fault></methodResponse>",
        ),
    ];
    for (resp, golden) in cases {
        assert_eq!(resp.to_xml(), golden);
        assert_eq!(MethodResponse::parse(golden), Some(resp));
    }
}

#[test]
fn service_description_bytes() {
    let desc = ServiceDescription {
        name: "Event \"Log\" <&>".to_owned(),
        kind: "logger".to_owned(),
        operations: vec!["append".to_owned(), "tail".to_owned()],
    };
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><service name=\"Event &quot;Log&quot; &lt;&amp;&gt;\" kind=\"logger\"><operation name=\"append\"/><operation name=\"tail\"/></service>";
    assert_eq!(desc.to_xml(), golden);
    assert_eq!(ServiceDescription::parse(golden), Some(desc));

    let bare = ServiceDescription {
        name: String::new(),
        kind: "k".to_owned(),
        operations: Vec::new(),
    };
    let golden = "<?xml version=\"1.0\" encoding=\"utf-8\"?><service name=\"\" kind=\"k\"/>";
    assert_eq!(bare.to_xml(), golden);
    assert_eq!(ServiceDescription::parse(golden), Some(bare));
}
