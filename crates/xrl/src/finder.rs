//! The Finder: broker for XRL resolution, component lifetime notification
//! and access control (§6.2, §7).
//!
//! "When a component is created within a process, it instantiates a
//! receiving point for the relevant XRL protocol families, and then
//! registers this with the Finder.  The registration includes a component
//! class, such as 'bgp'; a unique component instance name; and whether or
//! not the caller expects to be the sole instance."
//!
//! The paper's Finder is a separate process spoken to over its own protocol
//! family.  Here the Finder is shared state reachable by every router
//! thread in the host — the moral equivalent of host-local IPC with the
//! Finder process, without modelling one extra hop.  (Resolution *results*
//! still flow through real transports; only the broker lookup is direct.)
//! It is nevertheless also exposed as an XRL target (`finder/1.0/...`) so
//! scripts can query it like any other component, as in XORP.
//!
//! Security (§7): each registration is issued a random 16-byte key that the
//! Finder embeds in every resolved XRL.  Receivers reject calls whose key
//! does not match, so a component cannot bypass Finder resolution (and
//! hence cannot bypass the Finder's access-control list).

use std::collections::HashMap;
use std::net::SocketAddr;
use std::sync::Arc;

use parking_lot::Mutex;
use rand::RngCore;
use xorp_event::EventSender;

use crate::error::XrlError;

/// One transport endpoint a registered component can be reached at.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum Endpoint {
    /// Direct dispatch within the same event loop (router id must match the
    /// caller's).
    Intra {
        /// The hosting router's unique id.
        router_id: u64,
    },
    /// Pipelined TCP transport.
    Tcp(SocketAddr),
    /// Unpipelined UDP transport.
    Udp(SocketAddr),
}

/// A resolved XRL target: where and how to reach a component, plus the
/// method key the receiver will demand.
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct ResolveEntry {
    /// The chosen component instance.
    pub instance: String,
    /// Its component class.
    pub class: String,
    /// The 16-byte registration key (§7).
    pub key: [u8; 16],
    /// Reachable endpoints, in registration order.
    pub endpoints: Vec<Endpoint>,
}

/// A component birth/death event, delivered to lifetime watchers (§6.2).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct LifetimeEvent {
    /// Component class.
    pub class: String,
    /// Component instance.
    pub instance: String,
    /// True on registration, false on deregistration.
    pub up: bool,
}

struct Registration {
    class: String,
    instance: String,
    key: [u8; 16],
    endpoints: Vec<Endpoint>,
    sole: bool,
}

/// A party interested in loop-thread callbacks (cache invalidation,
/// lifetime events).  The closure posted must find its router through the
/// loop's type slot.
struct LoopHook {
    router_id: u64,
    sender: EventSender,
}

#[derive(Clone, Debug, PartialEq, Eq)]
struct AclRule {
    requester_class: String,
    target_class: String,
    /// Method path glob: exact `iface/ver/method` or a prefix ending in `*`.
    method_glob: String,
}

impl AclRule {
    fn matches(&self, requester_class: &str, target_class: &str, path: &str) -> bool {
        if self.requester_class != requester_class || self.target_class != target_class {
            return false;
        }
        match self.method_glob.strip_suffix('*') {
            Some(prefix) => path.starts_with(prefix),
            None => self.method_glob == path,
        }
    }
}

#[derive(Default)]
struct FinderInner {
    instances: HashMap<String, Registration>,
    /// class -> instance names, registration order.
    classes: HashMap<String, Vec<String>>,
    /// Routers to notify for cache invalidation.
    cache_holders: Vec<LoopHook>,
    /// (watch id, class filter, hook).
    watchers: Vec<(u64, String, LoopHook)>,
    next_watch_id: u64,
    acl_enabled: bool,
    acl: Vec<AclRule>,
}

/// The shared Finder.  Cheap to clone; all clones see the same broker.
#[derive(Clone, Default)]
pub struct Finder {
    inner: Arc<Mutex<FinderInner>>,
}

impl Finder {
    /// A fresh broker with no registrations and ACL disabled.
    pub fn new() -> Finder {
        Finder::default()
    }

    /// Register a component.  Returns the 16-byte method key the component
    /// must demand on incoming calls.
    ///
    /// `sole` asserts this should be the only instance of `class`; if
    /// violated the registration is refused.
    pub fn register(
        &self,
        class: &str,
        instance: &str,
        endpoints: Vec<Endpoint>,
        sole: bool,
    ) -> Result<[u8; 16], XrlError> {
        let mut key = [0u8; 16];
        rand::thread_rng().fill_bytes(&mut key);
        let mut inner = self.inner.lock();
        if inner.instances.contains_key(instance) {
            return Err(XrlError::ResolveFailed(format!(
                "instance {instance} already registered"
            )));
        }
        let existing = inner.classes.get(class).map_or(0, |v| v.len());
        if existing > 0 {
            let any_sole = inner
                .classes
                .get(class)
                .unwrap()
                .iter()
                .any(|i| inner.instances.get(i).is_some_and(|r| r.sole));
            if sole || any_sole {
                return Err(XrlError::ResolveFailed(format!(
                    "class {class} already has a sole instance"
                )));
            }
        }
        inner.instances.insert(
            instance.to_string(),
            Registration {
                class: class.to_string(),
                instance: instance.to_string(),
                key,
                endpoints,
                sole,
            },
        );
        inner
            .classes
            .entry(class.to_string())
            .or_default()
            .push(instance.to_string());
        Self::notify(&mut inner, class, instance, true);
        Self::invalidate(&mut inner, class);
        Ok(key)
    }

    /// Deregister a component instance; triggers death notifications and
    /// cache invalidation.
    pub fn deregister(&self, instance: &str) {
        let mut inner = self.inner.lock();
        if let Some(reg) = inner.instances.remove(instance) {
            if let Some(list) = inner.classes.get_mut(&reg.class) {
                list.retain(|i| i != instance);
                if list.is_empty() {
                    inner.classes.remove(&reg.class);
                }
            }
            Self::notify(&mut inner, &reg.class, instance, false);
            Self::invalidate(&mut inner, &reg.class);
        }
    }

    /// Resolve a component class (or exact instance name) for `requester`.
    ///
    /// With the ACL enabled, only permitted (requester-class, target-class,
    /// method) triples resolve — everything else is [`XrlError::AccessDenied`].
    pub fn resolve(
        &self,
        requester_class: &str,
        target: &str,
        method_path: &str,
    ) -> Result<ResolveEntry, XrlError> {
        let inner = self.inner.lock();
        let reg = match inner.instances.get(target) {
            Some(reg) => reg,
            None => {
                let instance = inner
                    .classes
                    .get(target)
                    .and_then(|v| v.first())
                    .ok_or_else(|| {
                        XrlError::ResolveFailed(format!("no such component: {target}"))
                    })?;
                &inner.instances[instance]
            }
        };
        if inner.acl_enabled
            && !inner
                .acl
                .iter()
                .any(|r| r.matches(requester_class, &reg.class, method_path))
        {
            return Err(XrlError::AccessDenied(format!(
                "{requester_class} may not call {}/{method_path}",
                reg.class
            )));
        }
        Ok(ResolveEntry {
            instance: reg.instance.clone(),
            class: reg.class.clone(),
            key: reg.key,
            endpoints: reg.endpoints.clone(),
        })
    }

    /// The registered instances of a class, in registration order.
    pub fn instances_of(&self, class: &str) -> Vec<String> {
        self.inner
            .lock()
            .classes
            .get(class)
            .cloned()
            .unwrap_or_default()
    }

    /// Verify an (instance, key) pair — receivers call this on first
    /// contact if they want Finder confirmation rather than local key state.
    /// Routers also use it from their watchdog to detect that the Finder
    /// forgot them (a restart) and must be re-registered.
    pub fn check_key(&self, instance: &str, key: &[u8; 16]) -> bool {
        self.inner
            .lock()
            .instances
            .get(instance)
            .is_some_and(|r| &r.key == key)
    }

    /// Simulate the Finder process dying and restarting with empty state:
    /// every registration and lifetime watch is forgotten, and all resolve
    /// caches are flushed (a restarted Finder knows nothing, so clients
    /// must not act on stale resolutions).  Cache-holder hooks survive —
    /// they model the clients' connections to the *new* Finder, which each
    /// router's watchdog uses to re-register (see
    /// [`crate::router::XrlRouter::start_watchdog`]).
    pub fn clear(&self) {
        let mut inner = self.inner.lock();
        inner.instances.clear();
        inner.classes.clear();
        inner.watchers.clear();
        Self::flush_all_caches(&mut inner);
    }

    // ----- loop hooks ------------------------------------------------------

    /// Register a router's loop for resolve-cache invalidation callbacks.
    pub(crate) fn add_cache_holder(&self, router_id: u64, sender: EventSender) {
        self.inner
            .lock()
            .cache_holders
            .push(LoopHook { router_id, sender });
    }

    pub(crate) fn remove_cache_holder(&self, router_id: u64) {
        self.inner
            .lock()
            .cache_holders
            .retain(|h| h.router_id != router_id);
    }

    /// Watch a component class for birth/death (§6.2).  Events are posted
    /// to the watcher's loop; its router fans them out to user callbacks.
    pub(crate) fn watch_class(&self, class: &str, router_id: u64, sender: EventSender) -> u64 {
        let mut inner = self.inner.lock();
        let id = inner.next_watch_id;
        inner.next_watch_id += 1;
        inner
            .watchers
            .push((id, class.to_string(), LoopHook { router_id, sender }));
        id
    }

    pub(crate) fn unwatch(&self, watch_id: u64) {
        self.inner
            .lock()
            .watchers
            .retain(|(id, _, _)| *id != watch_id);
    }

    /// Whether a watch id is still known — false after [`Finder::clear`],
    /// which is the watchdog's cue to re-establish it.
    pub(crate) fn has_watch(&self, watch_id: u64) -> bool {
        self.inner
            .lock()
            .watchers
            .iter()
            .any(|(id, _, _)| *id == watch_id)
    }

    fn notify(inner: &mut FinderInner, class: &str, instance: &str, up: bool) {
        let event = LifetimeEvent {
            class: class.to_string(),
            instance: instance.to_string(),
            up,
        };
        for (_, watched_class, hook) in &inner.watchers {
            if watched_class == class {
                let ev = event.clone();
                hook.sender.post(move |el| {
                    crate::router::XrlRouter::deliver_lifetime_event(el, &ev);
                });
            }
        }
    }

    fn invalidate(inner: &mut FinderInner, class: &str) {
        // "XRL resolution results are cached, and these caches are updated
        // by the Finder when entries become invalidated."
        for holder in &inner.cache_holders {
            let class = class.to_string();
            holder.sender.post(move |el| {
                crate::router::XrlRouter::invalidate_cache_on(el, &class);
            });
        }
    }

    // ----- access control (§7) ---------------------------------------------

    /// Turn the resolution ACL on or off.  Off (the default) resolves
    /// everything, matching XORP's current state; on enforces the rule set,
    /// matching the paper's "plans for extending XORP's security".
    ///
    /// Changing the policy flushes every client's resolve cache, so stale
    /// permissions cannot be exercised through cached resolutions.
    pub fn set_acl_enabled(&self, enabled: bool) {
        let mut inner = self.inner.lock();
        inner.acl_enabled = enabled;
        Self::flush_all_caches(&mut inner);
    }

    /// Permit `requester_class` to call `target_class` methods matching
    /// `method_glob` (exact path or prefix ending in `*`).  Flushes client
    /// caches like [`Finder::set_acl_enabled`].
    pub fn allow(&self, requester_class: &str, target_class: &str, method_glob: &str) {
        let mut inner = self.inner.lock();
        inner.acl.push(AclRule {
            requester_class: requester_class.to_string(),
            target_class: target_class.to_string(),
            method_glob: method_glob.to_string(),
        });
        Self::flush_all_caches(&mut inner);
    }

    fn flush_all_caches(inner: &mut FinderInner) {
        for holder in &inner.cache_holders {
            holder.sender.post(|el| {
                crate::router::XrlRouter::flush_cache_on(el);
            });
        }
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn ep() -> Vec<Endpoint> {
        vec![Endpoint::Intra { router_id: 1 }]
    }

    #[test]
    fn register_resolve_deregister() {
        let f = Finder::new();
        let key = f.register("bgp", "bgp-0", ep(), true).unwrap();
        let e = f.resolve("rib", "bgp", "bgp/1.0/set_local_as").unwrap();
        assert_eq!(e.instance, "bgp-0");
        assert_eq!(e.key, key);
        assert_eq!(e.endpoints, ep());
        f.deregister("bgp-0");
        assert!(f.resolve("rib", "bgp", "bgp/1.0/set_local_as").is_err());
    }

    #[test]
    fn resolve_by_instance_name() {
        let f = Finder::new();
        f.register("bgp", "bgp-a", ep(), false).unwrap();
        f.register("bgp", "bgp-b", ep(), false).unwrap();
        assert_eq!(f.resolve("x", "bgp", "m").unwrap().instance, "bgp-a");
        assert_eq!(f.resolve("x", "bgp-b", "m").unwrap().instance, "bgp-b");
        assert_eq!(f.instances_of("bgp"), vec!["bgp-a", "bgp-b"]);
    }

    #[test]
    fn sole_instance_enforced() {
        let f = Finder::new();
        f.register("rib", "rib-0", ep(), true).unwrap();
        // Another instance of a sole class is refused either way round.
        assert!(f.register("rib", "rib-1", ep(), false).is_err());
        let f2 = Finder::new();
        f2.register("rib", "rib-0", ep(), false).unwrap();
        assert!(f2.register("rib", "rib-1", ep(), true).is_err());
        // Non-sole coexistence is fine.
        f2.register("rib", "rib-2", ep(), false).unwrap();
    }

    #[test]
    fn duplicate_instance_names_refused() {
        let f = Finder::new();
        f.register("bgp", "bgp-0", ep(), false).unwrap();
        assert!(f.register("other", "bgp-0", ep(), false).is_err());
    }

    #[test]
    fn keys_are_distinct_and_checkable() {
        let f = Finder::new();
        let k1 = f.register("a", "a-0", ep(), false).unwrap();
        let k2 = f.register("b", "b-0", ep(), false).unwrap();
        assert_ne!(k1, k2);
        assert!(f.check_key("a-0", &k1));
        assert!(!f.check_key("a-0", &k2));
        assert!(!f.check_key("nope", &k1));
    }

    #[test]
    fn acl_denies_unlisted() {
        let f = Finder::new();
        f.register("fea", "fea-0", ep(), true).unwrap();
        f.set_acl_enabled(true);
        assert!(matches!(
            f.resolve("rogue", "fea", "fea/1.0/delete_all"),
            Err(XrlError::AccessDenied(_))
        ));
        f.allow("rip", "fea", "fea/1.0/send_*");
        assert!(f.resolve("rip", "fea", "fea/1.0/send_udp").is_ok());
        assert!(f.resolve("rip", "fea", "fea/1.0/delete_all").is_err());
        f.allow("rip", "fea", "fea/1.0/delete_all");
        assert!(f.resolve("rip", "fea", "fea/1.0/delete_all").is_ok());
        f.set_acl_enabled(false);
        assert!(f.resolve("rogue", "fea", "fea/1.0/anything").is_ok());
    }

    #[test]
    fn acl_glob_matching() {
        let rule = AclRule {
            requester_class: "a".into(),
            target_class: "b".into(),
            method_glob: "b/1.0/*".into(),
        };
        assert!(rule.matches("a", "b", "b/1.0/x"));
        assert!(!rule.matches("a", "b", "b/2.0/x"));
        assert!(!rule.matches("c", "b", "b/1.0/x"));
        let exact = AclRule {
            requester_class: "a".into(),
            target_class: "b".into(),
            method_glob: "b/1.0/x".into(),
        };
        assert!(exact.matches("a", "b", "b/1.0/x"));
        assert!(!exact.matches("a", "b", "b/1.0/xy"));
    }
}
