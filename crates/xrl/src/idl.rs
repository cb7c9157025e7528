//! A lightweight interface-definition layer.
//!
//! "As with many other IPC mechanisms, we have an interface definition
//! language (IDL) that supports interface specification, automatic stub
//! code generation, and basic error checking." (§6.1)
//!
//! Rather than an external compiler, interfaces are declared in code with
//! [`Interface`]; the declaration drives argument checking on both the
//! client side (composing calls) and the server side (wrapping handlers),
//! which is the error-checking role XORP's IDL plays.
//!
//! The [`crate::xrl_interface!`] macro goes the rest of the way to XORP's
//! generated stubs: one signature block expands into a typed client
//! ([`Client`](crate::xrl_interface!)-style struct with native-typed
//! methods and async reply adapters), a server trait, and a dispatch
//! wrapper that decodes arguments before the implementation runs.  The
//! same declaration supplies each method's wire-v2 id (see
//! [`crate::marshal`]), which caller and server compute independently, and
//! the interned call sites that keep the per-route path off the string
//! allocator.

use std::marker::PhantomData;

use crate::atom::{AtomCodec, AtomType, XrlArgs, XrlAtom};
use crate::error::XrlError;
use crate::router::{Responder, XrlRouter};
use crate::xrl::Xrl;
use xorp_event::EventLoop;

/// A method signature: named, typed arguments and return atoms.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct MethodSig {
    /// Method name.
    pub name: String,
    /// Required arguments, in order.
    pub args: Vec<(String, AtomType)>,
    /// Return atoms (documentation + response checking).
    pub rets: Vec<(String, AtomType)>,
}

/// An XRL interface: a named, versioned group of related methods (§6.1).
#[derive(Debug, Clone, PartialEq, Eq, Default)]
pub struct Interface {
    /// Interface name, e.g. `bgp`.
    pub name: String,
    /// Version, e.g. `1.0`.
    pub version: String,
    /// The methods.
    pub methods: Vec<MethodSig>,
}

impl Interface {
    /// Start an interface declaration.
    pub fn new(name: impl Into<String>, version: impl Into<String>) -> Interface {
        Interface {
            name: name.into(),
            version: version.into(),
            methods: Vec::new(),
        }
    }

    /// Declare a method (builder style).
    pub fn method(
        mut self,
        name: &str,
        args: &[(&str, AtomType)],
        rets: &[(&str, AtomType)],
    ) -> Interface {
        self.methods.push(MethodSig {
            name: name.to_string(),
            args: args.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
            rets: rets.iter().map(|(n, t)| (n.to_string(), *t)).collect(),
        });
        self
    }

    /// Find a method signature.
    pub fn find(&self, method: &str) -> Option<&MethodSig> {
        self.methods.iter().find(|m| m.name == method)
    }

    /// The `iface/version/method` dispatch path for a method.
    pub fn path(&self, method: &str) -> String {
        format!("{}/{}/{}", self.name, self.version, method)
    }

    /// Check an argument list against a method signature: every declared
    /// argument present with the right type.  Extra arguments are allowed
    /// (forward compatibility), missing or mistyped ones are not.
    pub fn check_args(&self, method: &str, args: &XrlArgs) -> Result<(), XrlError> {
        let sig = self
            .find(method)
            .ok_or_else(|| XrlError::NoSuchMethod(format!("{}: {method}", self.name)))?;
        for (name, ty) in &sig.args {
            match args.find(name) {
                Some(v) if v.atom_type() == *ty => {}
                Some(v) => {
                    return Err(XrlError::BadArgs(format!(
                        "{method}: argument {name} should be {} but is {}",
                        ty.tag(),
                        v.atom_type().tag()
                    )))
                }
                None => {
                    return Err(XrlError::BadArgs(format!(
                        "{method}: missing argument {name}:{}",
                        ty.tag()
                    )))
                }
            }
        }
        Ok(())
    }

    /// Compose a validated generic XRL for `method` aimed at `target`.
    pub fn xrl(&self, target: &str, method: &str, args: XrlArgs) -> Result<Xrl, XrlError> {
        self.check_args(method, &args)?;
        Ok(Xrl::generic(
            target,
            self.name.clone(),
            self.version.clone(),
            method,
            args,
        ))
    }

    /// Register a handler wrapped with server-side argument checking:
    /// calls with missing or mistyped arguments are rejected before the
    /// handler runs.
    pub fn serve<F>(&self, router: &XrlRouter, instance: &str, method: &str, f: F)
    where
        F: Fn(&mut EventLoop, &XrlArgs, Responder) + 'static,
    {
        let iface = self.clone();
        let method_name = method.to_string();
        router.add_handler(instance, &self.path(method), move |el, args, responder| {
            if let Err(e) = iface.check_args(&method_name, args) {
                responder.reply(el, Err(e));
                return;
            }
            f(el, args, responder);
        });
    }
}

/// Deterministic FNV-1a hash of a method signature: name, then each
/// argument's `(name, type tag)`, then each return's.  Any drift in names,
/// types, order, or arity changes the hash.
pub fn sig_hash(method: &str, args: &[(&str, AtomType)], rets: &[(&str, AtomType)]) -> u64 {
    const OFFSET: u64 = 0xcbf2_9ce4_8422_2325;
    const PRIME: u64 = 0x0000_0100_0000_01b3;
    fn eat(mut h: u64, bytes: &[u8]) -> u64 {
        for &b in bytes {
            h ^= b as u64;
            h = h.wrapping_mul(PRIME);
        }
        // Separator so ("ab","c") never collides with ("a","bc").
        h ^= 0xff;
        h.wrapping_mul(PRIME)
    }
    let mut h = eat(OFFSET, method.as_bytes());
    for (name, ty) in args {
        h = eat(h, name.as_bytes());
        h = eat(h, ty.tag().as_bytes());
    }
    h = eat(h, b"->");
    for (name, ty) in rets {
        h = eat(h, name.as_bytes());
        h = eat(h, ty.tag().as_bytes());
    }
    h
}

/// The wire-v2 id of a method: its full `iface/version/method` path and
/// signature hashed with [`sig_hash`], folded to 32 bits.  Caller and
/// server each derive it from their own declaration, so nothing is
/// negotiated: a caller whose signature drifted from the server's sends an
/// id the server does not know and gets `NoSuchMethod`, never a frame
/// decoded against the wrong argument list.
pub fn method_id(path: &str, args: &[(&str, AtomType)], rets: &[(&str, AtomType)]) -> u32 {
    let h = sig_hash(path, args, rets);
    (h ^ (h >> 32)) as u32
}

/// A tuple of native return values, convertible to and from an
/// [`XrlArgs`] block.  Implemented for tuples of [`AtomCodec`] types up
/// to arity 5; the `(T,)` trailing-comma form is a real tuple even at
/// arity 1, and `()` covers methods that return nothing.
pub trait RetTuple: Sized + 'static {
    /// Encode, either positionally (wire-v2 reply) or named.
    fn into_args(self, names: &'static [&'static str], positional: bool) -> XrlArgs;
    /// Decode by position with named fallback, like argument decoding.
    fn from_args(args: &XrlArgs, names: &'static [&'static str]) -> Result<Self, XrlError>;
}

macro_rules! ret_tuple {
    ($($t:ident : $idx:tt),*) => {
        impl<$($t: AtomCodec + 'static),*> RetTuple for ($($t,)*) {
            fn into_args(self, names: &'static [&'static str], positional: bool) -> XrlArgs {
                let mut args = XrlArgs::with_capacity(names.len());
                let _ = (names, positional, &mut args);
                $(
                    if positional {
                        args.push_value(self.$idx.into_atom());
                    } else {
                        args.push(XrlAtom::new(names[$idx], self.$idx.into_atom()));
                    }
                )*
                args
            }
            fn from_args(args: &XrlArgs, names: &'static [&'static str]) -> Result<Self, XrlError> {
                let _ = (args, names);
                Ok(($(args.get_arg::<$t>($idx, names[$idx])?,)*))
            }
        }
    };
}

ret_tuple!();
ret_tuple!(A: 0);
ret_tuple!(A: 0, B: 1);
ret_tuple!(A: 0, B: 1, C: 2);
ret_tuple!(A: 0, B: 1, C: 2, D: 3);
ret_tuple!(A: 0, B: 1, C: 2, D: 3, E: 4);

/// A [`Responder`] specialized to one method's return signature.
/// Generated server traits hand implementations one of these: it can be
/// answered inline or stashed and answered later (delayed replies), and
/// it encodes the reply positionally exactly when the request arrived on
/// wire v2 — a v1 caller always gets named atoms back.
pub struct TypedResponder<R: RetTuple> {
    responder: Responder,
    ret_names: &'static [&'static str],
    _marker: PhantomData<R>,
}

impl<R: RetTuple> TypedResponder<R> {
    /// Wrap a raw responder (generated dispatch wrappers call this).
    pub fn new(responder: Responder, ret_names: &'static [&'static str]) -> TypedResponder<R> {
        TypedResponder {
            responder,
            ret_names,
            _marker: PhantomData,
        }
    }

    /// Reply with the method's return values.
    pub fn ok(self, el: &mut EventLoop, vals: R) {
        let positional = self.responder.wire_v2();
        self.responder
            .reply(el, Ok(vals.into_args(self.ret_names, positional)));
    }

    /// Reply with an error.
    pub fn fail(self, el: &mut EventLoop, err: XrlError) {
        self.responder.reply(el, Err(err));
    }

    /// Reply with either.
    pub fn reply(self, el: &mut EventLoop, result: Result<R, XrlError>) {
        match result {
            Ok(vals) => self.ok(el, vals),
            Err(e) => self.fail(el, e),
        }
    }

    /// Whether the request arrived on the positional wire-v2 encoding
    /// (diagnostics; the reply encoding follows this automatically).
    pub fn wire_v2(&self) -> bool {
        self.responder.wire_v2()
    }
}

/// Expand an interface declaration into typed stubs, per §6.1's "automatic
/// stub code generation":
///
/// ```ignore
/// xrl_interface! {
///     pub interface rib("rib", "1.0") {
///         fn add_route(net: Ipv4Net, nexthop: Ipv4Addr, metric: u32);
///         fn route_count() -> (count: u32);
///     }
/// }
/// ```
///
/// generates `pub mod rib` containing:
///
/// * `Client` — one typed method per declaration.  Arguments are native
///   types; the final parameter is an async reply adapter receiving
///   `Result<(rets,), XrlError>`.  Every method call site is interned
///   ([`crate::XrlRouter::intern`]) under its [`method_id`], so the
///   per-call hot path does no string hashing and every call goes out as a
///   positional wire-v2 frame.  `client.priority()` is the same stub on
///   the priority lane.
/// * `Server` — a trait with one method per declaration, receiving decoded
///   native arguments and a [`TypedResponder`] (stashable for delayed
///   replies).
/// * `register(router, instance, impl Server)` — attaches a generated
///   dispatch wrapper per method under its path and its [`method_id`]
///   ([`crate::XrlRouter::add_typed_handler`]).  The wrapper decodes
///   arguments (rejecting mistyped or missing ones with the method path in
///   the error) before the trait method runs, from a v2 positional frame
///   or a v1 named one alike.
/// * `interface()` — the runtime [`Interface`] value, for checking and
///   introspection.
///
/// A stub that compiles cannot misname, mistype, or omit an argument: the
/// declaration is the single source of truth for the client, the server,
/// the dispatch table, and the wire encoding.
#[macro_export]
macro_rules! xrl_interface {
    (
        $(#[$meta:meta])*
        pub interface $modname:ident ($iface:literal, $ver:literal) {
            $(
                fn $mname:ident ( $($aname:ident : $aty:ty),* $(,)? )
                    $( -> ( $($rname:ident : $rty:ty),* $(,)? ) )? ;
            )*
        }
    ) => {
        $(#[$meta])*
        pub mod $modname {
            #[allow(unused_imports)]
            use super::*;
            use $crate::idl_support as __sup;

            /// The runtime interface declaration.
            pub fn interface() -> __sup::Interface {
                __sup::Interface::new($iface, $ver)
                    $(
                        .method(
                            stringify!($mname),
                            &[$((stringify!($aname), <$aty as __sup::AtomCodec>::TYPE)),*],
                            &[$($((stringify!($rname), <$rty as __sup::AtomCodec>::TYPE)),*)?],
                        )
                    )*
            }

            $(
                #[allow(non_upper_case_globals)]
                const $mname: (&str, &[&str]) = (
                    concat!($iface, "/", $ver, "/", stringify!($mname)),
                    &[$($(stringify!($rname)),*)?],
                );
            )*

            fn id_of(method: &str) -> u32 {
                let iface = interface();
                let m = iface.find(method).expect("declared method");
                let args: Vec<(&str, __sup::AtomType)> =
                    m.args.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                let rets: Vec<(&str, __sup::AtomType)> =
                    m.rets.iter().map(|(n, t)| (n.as_str(), *t)).collect();
                __sup::method_id(&iface.path(method), &args, &rets)
            }

            /// Typed client stub.  Cheap to clone; all clones share the
            /// interned call sites.
            #[derive(Clone)]
            pub struct Client {
                router: __sup::XrlRouter,
                priority: bool,
                $( $mname: __sup::InternedCall, )*
            }

            impl Client {
                /// Intern every method of this interface on `target`
                /// (a class or instance name) and return the stub.
                pub fn new(router: &__sup::XrlRouter, target: &str) -> Client {
                    Client {
                        router: router.clone(),
                        priority: false,
                        $(
                            $mname: router.intern(
                                target,
                                $mname.0,
                                id_of(stringify!($mname)),
                            ),
                        )*
                    }
                }

                /// The same stub sending on the priority lane (control
                /// traffic that must pass congested data lanes).
                #[allow(dead_code)]
                pub fn priority(&self) -> Client {
                    let mut c = self.clone();
                    c.priority = true;
                    c
                }

                $(
                    /// Generated typed call: encodes arguments
                    /// positionally, sends through the interned call
                    /// site, and decodes the reply into native types.
                    #[allow(clippy::too_many_arguments)]
                    pub fn $mname(
                        &self,
                        el: &mut __sup::EventLoop,
                        $($aname: $aty,)*
                        cb: impl FnOnce(
                            &mut __sup::EventLoop,
                            Result<($($($rty,)*)?), __sup::XrlError>,
                        ) + 'static,
                    ) {
                        #[allow(unused_mut)]
                        let mut args = __sup::XrlArgs::with_capacity(
                            <[&str]>::len(&[$(stringify!($aname)),*]),
                        );
                        $( args.push_value(__sup::AtomCodec::into_atom($aname)); )*
                        self.router.send_interned(
                            el,
                            &self.$mname,
                            args,
                            self.priority,
                            Box::new(move |el, result| {
                                let decoded = result.and_then(|args| {
                                    <($($($rty,)*)?) as __sup::RetTuple>::from_args(
                                        &args,
                                        $mname.1,
                                    )
                                });
                                cb(el, decoded);
                            }),
                        );
                    }
                )*
            }

            /// Generated server trait: one method per declaration, with
            /// decoded native arguments and a stashable typed responder.
            pub trait Server: 'static {
                $(
                    #[allow(clippy::too_many_arguments)]
                    fn $mname(
                        &self,
                        el: &mut __sup::EventLoop,
                        $($aname: $aty,)*
                        responder: __sup::TypedResponder<($($($rty,)*)?)>,
                    );
                )*
            }

            /// Register `server` on a target instance: every method gets a
            /// generated dispatch wrapper, reachable by path (v1) and by
            /// method id (v2).  Returns the shared server handle.
            pub fn register<S: Server>(
                router: &__sup::XrlRouter,
                instance: &str,
                server: S,
            ) -> __sup::Rc<S> {
                let server = __sup::Rc::new(server);
                register_rc(router, instance, &server);
                server
            }

            /// Like [`register`], for a server handle that is already
            /// shared.
            pub fn register_rc<S: Server>(
                router: &__sup::XrlRouter,
                instance: &str,
                server: &__sup::Rc<S>,
            ) {
                $(
                    {
                        let s = __sup::Rc::clone(server);
                        router.add_typed_handler(
                            instance,
                            $mname.0,
                            id_of(stringify!($mname)),
                            move |el, mut args, responder| {
                                let _ = &mut args;
                                let responder = __sup::TypedResponder::new(responder, $mname.1);
                                #[allow(unused_mut, unused_variables)]
                                let mut idx = 0usize;
                                $(
                                    let $aname: $aty =
                                        match args.take_arg(idx, stringify!($aname)) {
                                            Ok(v) => v,
                                            Err(e) => {
                                                responder.fail(el, e);
                                                return;
                                            }
                                        };
                                    #[allow(unused_assignments)]
                                    {
                                        idx += 1;
                                    }
                                )*
                                s.$mname(el, $($aname,)* responder);
                            },
                        );
                    }
                )*
            }
        }
    };
}

#[cfg(test)]
mod tests {
    use super::*;

    fn bgp_iface() -> Interface {
        Interface::new("bgp", "1.0")
            .method("set_local_as", &[("as", AtomType::U32)], &[])
            .method(
                "add_peer",
                &[("addr", AtomType::Ipv4), ("as", AtomType::U32)],
                &[("ok", AtomType::Bool)],
            )
    }

    #[test]
    fn check_args_accepts_valid() {
        let i = bgp_iface();
        let args = XrlArgs::new().add_u32("as", 1777);
        assert!(i.check_args("set_local_as", &args).is_ok());
    }

    #[test]
    fn check_args_rejects_missing_and_mistyped() {
        let i = bgp_iface();
        assert!(matches!(
            i.check_args("set_local_as", &XrlArgs::new()),
            Err(XrlError::BadArgs(_))
        ));
        let wrong = XrlArgs::new().add_str("as", "1777");
        assert!(matches!(
            i.check_args("set_local_as", &wrong),
            Err(XrlError::BadArgs(_))
        ));
        assert!(matches!(
            i.check_args("no_such", &XrlArgs::new()),
            Err(XrlError::NoSuchMethod(_))
        ));
    }

    #[test]
    fn extra_args_allowed() {
        let i = bgp_iface();
        let args = XrlArgs::new().add_u32("as", 1).add_str("note", "x");
        assert!(i.check_args("set_local_as", &args).is_ok());
    }

    #[test]
    fn xrl_composition() {
        let i = bgp_iface();
        let x = i
            .xrl("bgp", "set_local_as", XrlArgs::new().add_u32("as", 1777))
            .unwrap();
        assert_eq!(
            x.to_string(),
            "finder://bgp/bgp/1.0/set_local_as?as:u32=1777"
        );
        assert!(i.xrl("bgp", "set_local_as", XrlArgs::new()).is_err());
    }

    #[test]
    fn path_format() {
        assert_eq!(bgp_iface().path("add_peer"), "bgp/1.0/add_peer");
    }

    #[test]
    fn sig_hash_is_order_and_type_sensitive() {
        let base = sig_hash(
            "add_peer",
            &[("addr", AtomType::Ipv4), ("as", AtomType::U32)],
            &[("ok", AtomType::Bool)],
        );
        // Different order, type, name, arity or return each change the hash.
        assert_ne!(
            base,
            sig_hash(
                "add_peer",
                &[("as", AtomType::U32), ("addr", AtomType::Ipv4)],
                &[("ok", AtomType::Bool)],
            )
        );
        assert_ne!(
            base,
            sig_hash(
                "add_peer",
                &[("addr", AtomType::Ipv4), ("as", AtomType::U64)],
                &[("ok", AtomType::Bool)],
            )
        );
        assert_ne!(
            base,
            sig_hash(
                "add_peer",
                &[("addr", AtomType::Ipv4), ("as", AtomType::U32)],
                &[],
            )
        );
        // Moving an atom across the arg/ret boundary changes the hash too.
        assert_ne!(
            sig_hash("m", &[("a", AtomType::U32)], &[]),
            sig_hash("m", &[], &[("a", AtomType::U32)])
        );
        // Deterministic across calls (this is what both sides compare).
        assert_eq!(
            base,
            sig_hash(
                "add_peer",
                &[("addr", AtomType::Ipv4), ("as", AtomType::U32)],
                &[("ok", AtomType::Bool)],
            )
        );
    }
}

#[cfg(test)]
mod stub_tests {
    use crate::finder::Finder;
    use crate::router::XrlRouter;
    use crate::xrl::Xrl;
    use crate::{AtomType, XrlArgs, XrlError};
    use std::cell::RefCell;
    use std::net::Ipv4Addr;
    use std::rc::Rc;
    use xorp_event::EventLoop;

    xrl_interface! {
        /// A small interface exercising zero-arg, multi-arg, zero-ret and
        /// multi-ret shapes.
        pub interface test_math("test_math", "1.0") {
            fn ping();
            fn add(a: u32, b: u32) -> (sum: u32);
            fn describe(addr: Ipv4Addr, label: String) -> (text: String, len: u32);
        }
    }

    struct MathServer {
        // (call, request-was-wire-v2) log, for wire-version assertions.
        calls: CallLog,
    }

    impl test_math::Server for MathServer {
        fn ping(&self, el: &mut EventLoop, responder: crate::TypedResponder<()>) {
            self.calls.borrow_mut().push(("ping", responder.wire_v2()));
            responder.ok(el, ());
        }

        fn add(
            &self,
            el: &mut EventLoop,
            a: u32,
            b: u32,
            responder: crate::TypedResponder<(u32,)>,
        ) {
            self.calls.borrow_mut().push(("add", responder.wire_v2()));
            responder.ok(el, (a + b,));
        }

        fn describe(
            &self,
            el: &mut EventLoop,
            addr: Ipv4Addr,
            label: String,
            responder: crate::TypedResponder<(String, u32)>,
        ) {
            self.calls
                .borrow_mut()
                .push(("describe", responder.wire_v2()));
            let text = format!("{label}@{addr}");
            let len = text.len() as u32;
            responder.ok(el, (text, len));
        }
    }

    type CallLog = Rc<RefCell<Vec<(&'static str, bool)>>>;

    fn setup(el: &mut EventLoop) -> (XrlRouter, CallLog) {
        let router = XrlRouter::new(el, Finder::new());
        router.register_target("math", "math-0", true).unwrap();
        let calls = Rc::new(RefCell::new(Vec::new()));
        test_math::register(
            &router,
            "math-0",
            MathServer {
                calls: calls.clone(),
            },
        );
        (router, calls)
    }

    #[test]
    fn interface_declaration_matches_macro_input() {
        let iface = test_math::interface();
        assert_eq!(iface.name, "test_math");
        assert_eq!(iface.version, "1.0");
        let add = iface.find("add").unwrap();
        assert_eq!(
            add.args,
            vec![
                ("a".to_string(), AtomType::U32),
                ("b".to_string(), AtomType::U32)
            ]
        );
        assert_eq!(add.rets, vec![("sum".to_string(), AtomType::U32)]);
        assert!(iface.find("ping").unwrap().args.is_empty());
        assert!(iface.find("ping").unwrap().rets.is_empty());
    }

    #[test]
    fn typed_roundtrip_negotiates_wire_v2() {
        let mut el = EventLoop::new_virtual();
        let (router, calls) = setup(&mut el);
        let client = test_math::Client::new(&router, "math");

        let got: Rc<RefCell<Vec<String>>> = Rc::new(RefCell::new(Vec::new()));
        let g = got.clone();
        client.ping(&mut el, move |_el, r| {
            g.borrow_mut().push(format!("ping={:?}", r.is_ok()));
        });
        let g = got.clone();
        client.add(&mut el, 2, 40, move |_el, r| {
            g.borrow_mut().push(format!("add={:?}", r.map(|(s,)| s)));
        });
        let g = got.clone();
        client.describe(
            &mut el,
            Ipv4Addr::new(10, 0, 0, 1),
            "lo".to_string(),
            move |_el, r| {
                g.borrow_mut().push(format!("describe={r:?}"));
            },
        );
        el.run_until_idle();

        let got = got.borrow().clone();
        assert!(got.contains(&"ping=true".to_string()), "{got:?}");
        assert!(got.contains(&"add=Ok(42)".to_string()), "{got:?}");
        assert!(
            got.contains(&"describe=Ok((\"lo@10.0.0.1\", 11))".to_string()),
            "{got:?}"
        );
        // Typed stubs always send positional wire-v2 frames.
        let calls = calls.borrow().clone();
        assert_eq!(calls.len(), 3);
        assert!(calls.iter().all(|(_, v2)| *v2), "{calls:?}");
    }

    xrl_interface! {
        /// `test_math` as a caller built from a drifted declaration would
        /// see it: same path for `add`, different argument type.
        #[allow(dead_code)]
        pub interface test_math_drifted("test_math", "1.0") {
            fn add(a: u32, b: u64) -> (sum: u32);
        }
    }

    #[test]
    fn drifted_signature_gets_no_such_method() {
        // The caller derives a different id for `test_math/1.0/add`, the
        // server does not know it, and the call fails cleanly instead of
        // decoding `b` against the wrong type.
        let mut el = EventLoop::new_virtual();
        let (router, calls) = setup(&mut el);
        let client = test_math_drifted::Client::new(&router, "math");

        let got = Rc::new(RefCell::new(None));
        let g = got.clone();
        client.add(&mut el, 1, 2, move |_el, r| {
            *g.borrow_mut() = Some(r);
        });
        el.run_until_idle();

        assert!(
            matches!(*got.borrow(), Some(Err(XrlError::NoSuchMethod(_)))),
            "{:?}",
            got.borrow()
        );
        assert!(calls.borrow().is_empty());
    }

    #[test]
    #[should_panic(expected = "collides with")]
    fn colliding_method_ids_panic_at_registration() {
        let mut el = EventLoop::new_virtual();
        let router = XrlRouter::new(&mut el, Finder::new());
        router.register_target("math", "math-0", true).unwrap();
        router.add_typed_handler("math-0", "a/1.0/x", 7, |el, _args, r| r.ok(el));
        router.add_typed_handler("math-0", "a/1.0/y", 7, |el, _args, r| r.ok(el));
    }

    #[test]
    fn method_ids_differ_per_path_and_signature() {
        let add = crate::idl::method_id("test_math/1.0/add", &[("a", AtomType::U32)], &[]);
        assert_ne!(
            add,
            crate::idl::method_id("other/1.0/add", &[("a", AtomType::U32)], &[])
        );
        assert_ne!(
            add,
            crate::idl::method_id("test_math/1.0/add", &[("a", AtomType::U64)], &[])
        );
        assert_eq!(
            add,
            crate::idl::method_id("test_math/1.0/add", &[("a", AtomType::U32)], &[])
        );
    }

    #[test]
    fn generic_v1_caller_reaches_generated_server() {
        // A peer with no stubs at all (hand-built named args, as any
        // pre-v2 component would send) must hit the same server trait.
        let mut el = EventLoop::new_virtual();
        let (router, calls) = setup(&mut el);

        let sum = Rc::new(RefCell::new(None));
        let s = sum.clone();
        let xrl = Xrl::generic(
            "math",
            "test_math",
            "1.0",
            "add",
            XrlArgs::new().add_u32("b", 8).add_u32("a", 1),
        );
        router.send(
            &mut el,
            xrl,
            Box::new(move |_el, r| {
                *s.borrow_mut() = Some(r.and_then(|args| args.get_u32("sum")));
            }),
        );
        el.run_until_idle();

        // Out-of-order named args decode correctly (by-name fallback).
        assert_eq!(*sum.borrow(), Some(Ok(9)));
        assert_eq!(calls.borrow().as_slice(), &[("add", false)]);
    }

    #[test]
    fn dispatch_wrapper_rejects_bad_args_with_method_context() {
        let mut el = EventLoop::new_virtual();
        let (router, calls) = setup(&mut el);

        let err = Rc::new(RefCell::new(None));
        let e = err.clone();
        let xrl = Xrl::generic(
            "math",
            "test_math",
            "1.0",
            "add",
            XrlArgs::new().add_u32("a", 1).add_str("b", "oops"),
        );
        router.send(
            &mut el,
            xrl,
            Box::new(move |_el, r| {
                *e.borrow_mut() = Some(r);
            }),
        );
        el.run_until_idle();

        let got = err.borrow_mut().take().unwrap();
        let msg = match got {
            Err(XrlError::BadArgs(m)) => m,
            other => panic!("expected BadArgs, got {other:?}"),
        };
        // The decode error names both the offending field and the method.
        assert!(msg.contains('b'), "{msg}");
        assert!(msg.contains("test_math/1.0/add"), "{msg}");
        // The server implementation never ran.
        assert!(calls.borrow().is_empty());
    }
}
