//! Named-endpoint rendezvous over XenStore (§3.2.2).
//!
//! Figure 5's tree layout, reproduced here:
//!
//! ```text
//! /conduit/<service>            = "<server domid>"
//! /conduit/<service>/listen/<conn> = "<client domid>"   (create-restricted)
//! /conduit/<service>/established/<conn> = "<flow id>"
//! /local/domain/<server>/vchan/<conn>/{ring-ref,event-channel,domid}
//! /conduit/flows/<id>           = "(<state> (metadata...))"
//! ```
//!
//! A server registers its name, watches its `listen` directory and accepts
//! incoming connection requests by establishing a [`VchanPair`] and
//! publishing the grant/event-channel references under its domain's `vchan`
//! subtree, where only the participants can read them. Third parties can
//! neither observe nor interfere with connections that do not concern them
//! because the `listen` directory uses the create-restricted permission
//! extension (§3.2.3).

use crate::flows::{FlowState, FlowTable};
use crate::vchan::VchanPair;
use xen_sim::event_channel::EventChannelTable;
use xen_sim::grant_table::GrantTable;
use xenstore::{DomId, Error as XsError, PermLevel, Permissions, XenStore};

/// Errors from rendezvous operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum ConduitError {
    /// The named service is not registered.
    UnknownService(String),
    /// A XenStore operation failed.
    Store(XsError),
    /// vchan establishment failed.
    Vchan(String),
}

impl From<XsError> for ConduitError {
    fn from(e: XsError) -> Self {
        ConduitError::Store(e)
    }
}

/// A named conduit endpoint (a registered service).
#[derive(Debug, Clone, PartialEq, Eq)]
pub struct Endpoint {
    /// The service name, e.g. `http_server` or `jitsud`.
    pub name: String,
    /// The domain serving it.
    pub dom: DomId,
}

/// An accepted connection, as returned by [`ConduitRegistry::accept`].
#[derive(Debug)]
pub struct AcceptedConnection {
    /// The connection name the client chose (e.g. `conn1`).
    pub conn: String,
    /// The client domain.
    pub client: DomId,
    /// The flow table entry.
    pub flow_id: u64,
    /// The established shared-memory channel.
    pub channel: VchanPair,
}

/// The rendezvous registry: stateless helpers over the store plus a flow-id
/// allocator.
#[derive(Debug, Default)]
pub struct ConduitRegistry {
    flows: FlowTable,
}

impl ConduitRegistry {
    /// Create a registry.
    pub fn new() -> ConduitRegistry {
        ConduitRegistry {
            flows: FlowTable::new(),
        }
    }

    fn service_path(name: &str) -> String {
        format!("/conduit/{name}")
    }

    fn listen_path(name: &str) -> String {
        format!("/conduit/{name}/listen")
    }

    fn established_path(name: &str) -> String {
        format!("/conduit/{name}/established")
    }

    fn vchan_path(server: DomId, conn: &str) -> String {
        format!("/local/domain/{}/vchan/{}", server.0, conn)
    }

    /// The watch token a server should use on its listen directory.
    pub fn listen_token(name: &str) -> String {
        format!("conduit-listen:{name}")
    }

    /// Register a service: record the owning domain, create the
    /// create-restricted `listen` directory, and watch it for connection
    /// requests. Registration is performed by dom0 on behalf of the server
    /// domain (as the toolstack does when it boots the unikernel), but the
    /// resulting keys are owned by the server.
    pub fn register(
        &mut self,
        xs: &mut XenStore,
        name: &str,
        server: DomId,
    ) -> Result<Endpoint, ConduitError> {
        let base = Self::service_path(name);
        xs.write(DomId::DOM0, None, &base, server.0.to_string().as_bytes())?;
        // The service node itself is world-readable so clients can resolve it.
        xs.set_perms(
            DomId::DOM0,
            None,
            &base,
            Permissions::with_default(server, PermLevel::Read),
        )?;
        xs.mkdir(DomId::DOM0, None, &Self::listen_path(name))?;
        xs.set_perms(
            DomId::DOM0,
            None,
            &Self::listen_path(name),
            Permissions::owned_by(server).create_restricted(),
        )?;
        xs.mkdir(DomId::DOM0, None, &Self::established_path(name))?;
        xs.set_perms(
            DomId::DOM0,
            None,
            &Self::established_path(name),
            Permissions::with_default(server, PermLevel::Read),
        )?;
        xs.watch(server, &Self::listen_path(name), &Self::listen_token(name))?;
        // Drain the initial synthetic event so later events mean real work.
        let _ = xs.take_watch_events(server);
        Ok(Endpoint {
            name: name.to_string(),
            dom: server,
        })
    }

    /// Resolve a service name to its serving domain.
    pub fn resolve(
        xs: &mut XenStore,
        requester: DomId,
        name: &str,
    ) -> Result<Endpoint, ConduitError> {
        match xs.read_string(requester, None, &Self::service_path(name)) {
            Ok(v) => {
                let dom = v
                    .trim()
                    .parse::<u32>()
                    .map_err(|_| ConduitError::UnknownService(name.to_string()))?;
                Ok(Endpoint {
                    name: name.to_string(),
                    dom: DomId(dom),
                })
            }
            Err(XsError::NoEntry(_)) => Err(ConduitError::UnknownService(name.to_string())),
            Err(e) => Err(ConduitError::Store(e)),
        }
    }

    /// List all registered service names.
    pub fn services(xs: &mut XenStore) -> Vec<String> {
        xs.directory(DomId::DOM0, None, "/conduit")
            .unwrap_or_default()
            .into_iter()
            .filter(|n| n != "flows")
            .collect()
    }

    /// A client requests a connection to `service` by writing its chosen
    /// connection name into the service's listen queue. Returns the resolved
    /// endpoint. (The connection becomes usable once the server accepts.)
    pub fn connect(
        xs: &mut XenStore,
        client: DomId,
        service: &str,
        conn: &str,
    ) -> Result<Endpoint, ConduitError> {
        let endpoint = Self::resolve(xs, client, service)?;
        let path = format!("{}/{}", Self::listen_path(service), conn);
        xs.write(client, None, &path, client.0.to_string().as_bytes())?;
        Ok(endpoint)
    }

    /// The server accepts all pending connection requests: for each entry in
    /// its listen queue it establishes a vchan, publishes the connection
    /// metadata under `/local/domain/<server>/vchan/<conn>`, records the
    /// flow, and removes the listen entry.
    pub fn accept(
        &mut self,
        xs: &mut XenStore,
        grants: &mut GrantTable,
        evtchn: &mut EventChannelTable,
        name: &str,
        server: DomId,
    ) -> Result<Vec<AcceptedConnection>, ConduitError> {
        // Consume any pending watch events (their content only tells us to look).
        let _ = xs.take_watch_events(server);
        let listen = Self::listen_path(name);
        let pending = xs.directory(server, None, &listen)?;
        let mut accepted = Vec::new();
        for conn in pending {
            if let Some(c) = self.accept_entry(xs, grants, evtchn, name, server, &conn)? {
                accepted.push(c);
            }
        }
        Ok(accepted)
    }

    /// Accept exactly one named pending connection request, leaving any
    /// other queued requests untouched. This is the Synjitsu-handoff
    /// rendezvous shape: the server knows precisely which connection it is
    /// waiting for (the booting unikernel's), and must not consume requests
    /// that belong to other handoffs in flight.
    pub fn accept_one(
        &mut self,
        xs: &mut XenStore,
        grants: &mut GrantTable,
        evtchn: &mut EventChannelTable,
        name: &str,
        server: DomId,
        conn: &str,
    ) -> Result<AcceptedConnection, ConduitError> {
        let _ = xs.take_watch_events(server);
        self.accept_entry(xs, grants, evtchn, name, server, conn)?
            .ok_or_else(|| ConduitError::UnknownService(format!("{name}/{conn}")))
    }

    /// Establish one listen entry: vchan, published metadata, flow record.
    /// Returns `None` when the entry is malformed (it is dropped).
    fn accept_entry(
        &mut self,
        xs: &mut XenStore,
        grants: &mut GrantTable,
        evtchn: &mut EventChannelTable,
        name: &str,
        server: DomId,
        conn: &str,
    ) -> Result<Option<AcceptedConnection>, ConduitError> {
        let listen = Self::listen_path(name);
        let entry = format!("{listen}/{conn}");
        let client_str = xs.read_string(server, None, &entry)?;
        let Ok(client_id) = client_str.trim().parse::<u32>() else {
            // Malformed request: drop it.
            #[expect(
                clippy::let_underscore_must_use,
                reason = "best-effort cleanup of a malformed entry; rm of a just-read path only races another cleaner"
            )]
            let _ = xs.rm(server, None, &entry);
            return Ok(None);
        };
        let client = DomId(client_id);
        let channel = VchanPair::establish(grants, evtchn, server, client)
            .map_err(|e| ConduitError::Vchan(format!("{e:?}")))?;

        // Publish the shared-memory endpoint details where only the two
        // participants (and dom0) can read them.
        let vchan_base = Self::vchan_path(server, conn);
        xs.write(
            DomId::DOM0,
            None,
            &format!("{vchan_base}/ring-ref"),
            channel.server_ring_gref.0.to_string().as_bytes(),
        )?;
        xs.write(
            DomId::DOM0,
            None,
            &format!("{vchan_base}/event-channel"),
            channel.client_port.0.to_string().as_bytes(),
        )?;
        xs.write(
            DomId::DOM0,
            None,
            &format!("{vchan_base}/domid"),
            client.0.to_string().as_bytes(),
        )?;
        // The endpoint details are readable only by the two participants
        // (and dom0); every key must carry the grant, not just the
        // directory, since permissions are per node.
        let participant_perms = Permissions::owned_by(server).granting(client, PermLevel::Read);
        for key in ["", "/ring-ref", "/event-channel", "/domid"] {
            xs.set_perms(
                DomId::DOM0,
                None,
                &format!("{vchan_base}{key}"),
                participant_perms.clone(),
            )?;
        }

        let flow_id = self.flows.create(
            xs,
            DomId::DOM0,
            FlowState::Established,
            &format!("service {name} client dom{} conn {conn}", client.0),
        )?;
        xs.write(
            DomId::DOM0,
            None,
            &format!("{}/{}", Self::established_path(name), conn),
            flow_id.to_string().as_bytes(),
        )?;
        xs.rm(server, None, &entry)?;
        Ok(Some(AcceptedConnection {
            conn: conn.to_string(),
            client,
            flow_id,
            channel,
        }))
    }

    /// Tear down an accepted connection's metadata and mark its flow closed.
    pub fn close(
        xs: &mut XenStore,
        name: &str,
        server: DomId,
        conn: &str,
        flow_id: u64,
    ) -> Result<(), ConduitError> {
        #[expect(
            clippy::let_underscore_must_use,
            reason = "teardown is best-effort: the paths may already be gone if the peer cleaned up first"
        )]
        let _ = xs.rm(DomId::DOM0, None, &Self::vchan_path(server, conn));
        #[expect(
            clippy::let_underscore_must_use,
            reason = "teardown is best-effort: the paths may already be gone if the peer cleaned up first"
        )]
        let _ = xs.rm(
            DomId::DOM0,
            None,
            &format!("{}/{}", Self::established_path(name), conn),
        );
        FlowTable::set_state(xs, DomId::DOM0, flow_id, FlowState::Closed)?;
        Ok(())
    }
}

#[cfg(test)]
mod tests {
    use super::*;
    use crate::vchan::Side;
    use xenstore::EngineKind;

    struct Env {
        xs: XenStore,
        grants: GrantTable,
        evtchn: EventChannelTable,
        registry: ConduitRegistry,
    }

    fn env() -> Env {
        Env {
            xs: XenStore::new(EngineKind::JitsuMerge),
            grants: GrantTable::new(),
            evtchn: EventChannelTable::new(),
            registry: ConduitRegistry::new(),
        }
    }

    const SERVER: DomId = DomId(3);
    const CLIENT: DomId = DomId(7);

    #[test]
    fn register_resolve_and_list() {
        let mut e = env();
        let ep = e
            .registry
            .register(&mut e.xs, "http_server", SERVER)
            .unwrap();
        assert_eq!(ep.dom, SERVER);
        let resolved = ConduitRegistry::resolve(&mut e.xs, CLIENT, "http_server").unwrap();
        assert_eq!(resolved, ep);
        assert_eq!(
            ConduitRegistry::resolve(&mut e.xs, CLIENT, "missing"),
            Err(ConduitError::UnknownService("missing".into()))
        );
        e.registry.register(&mut e.xs, "jitsud", DomId(2)).unwrap();
        let mut services = ConduitRegistry::services(&mut e.xs);
        services.sort();
        assert_eq!(services, vec!["http_server", "jitsud"]);
    }

    #[test]
    fn full_connect_accept_flow_matches_figure5() {
        let mut e = env();
        e.registry
            .register(&mut e.xs, "http_server", SERVER)
            .unwrap();

        // Client writes into the listen queue (as the client domain).
        ConduitRegistry::connect(&mut e.xs, CLIENT, "http_server", "conn1").unwrap();
        // The server got a watch event.
        assert!(e.xs.pending_watch_events(SERVER) > 0);

        let mut accepted = e
            .registry
            .accept(
                &mut e.xs,
                &mut e.grants,
                &mut e.evtchn,
                "http_server",
                SERVER,
            )
            .unwrap();
        assert_eq!(accepted.len(), 1);
        let conn = &mut accepted[0];
        assert_eq!(conn.client, CLIENT);
        assert_eq!(conn.conn, "conn1");

        // Metadata appears where Figure 5 says it should.
        let ring_ref =
            e.xs.read_string(SERVER, None, "/local/domain/3/vchan/conn1/ring-ref")
                .unwrap();
        assert_eq!(ring_ref, conn.channel.server_ring_gref.0.to_string());
        assert_eq!(
            e.xs.read_string(SERVER, None, "/local/domain/3/vchan/conn1/domid")
                .unwrap(),
            "7"
        );
        assert!(e
            .xs
            .exists(DomId::DOM0, None, "/conduit/http_server/established/conn1")
            .unwrap());
        // The listen entry has been consumed.
        assert!(!e
            .xs
            .exists(SERVER, None, "/conduit/http_server/listen/conn1")
            .unwrap());
        // The flow is recorded as established.
        assert_eq!(
            FlowTable::state(&mut e.xs, DomId::DOM0, conn.flow_id).unwrap(),
            Some(FlowState::Established)
        );

        // And bytes flow over the channel.
        conn.channel
            .write(Side::Client, b"GET /queue HTTP/1.1\r\n\r\n", &mut e.evtchn)
            .unwrap();
        assert_eq!(
            conn.channel.read(Side::Server, 64).unwrap(),
            b"GET /queue HTTP/1.1\r\n\r\n"
        );
    }

    #[test]
    fn third_parties_cannot_observe_listen_entries() {
        let mut e = env();
        e.registry
            .register(&mut e.xs, "http_server", SERVER)
            .unwrap();
        ConduitRegistry::connect(&mut e.xs, CLIENT, "http_server", "conn1").unwrap();
        // Another guest cannot read the client's connection request...
        assert!(e
            .xs
            .read(DomId(9), None, "/conduit/http_server/listen/conn1")
            .is_err());
        // ...but the server can.
        assert!(e
            .xs
            .read(SERVER, None, "/conduit/http_server/listen/conn1")
            .is_ok());
    }

    #[test]
    fn vchan_metadata_is_private_to_participants() {
        let mut e = env();
        e.registry
            .register(&mut e.xs, "http_server", SERVER)
            .unwrap();
        ConduitRegistry::connect(&mut e.xs, CLIENT, "http_server", "conn1").unwrap();
        e.registry
            .accept(
                &mut e.xs,
                &mut e.grants,
                &mut e.evtchn,
                "http_server",
                SERVER,
            )
            .unwrap();
        assert!(e
            .xs
            .read(CLIENT, None, "/local/domain/3/vchan/conn1/ring-ref")
            .is_ok());
        assert!(e
            .xs
            .read(DomId(9), None, "/local/domain/3/vchan/conn1/ring-ref")
            .is_err());
    }

    #[test]
    fn multiple_clients_accepted_in_one_pass() {
        let mut e = env();
        e.registry
            .register(&mut e.xs, "http_server", SERVER)
            .unwrap();
        ConduitRegistry::connect(&mut e.xs, DomId(7), "http_server", "conn1").unwrap();
        ConduitRegistry::connect(&mut e.xs, DomId(9), "http_server", "conn2").unwrap();
        let accepted = e
            .registry
            .accept(
                &mut e.xs,
                &mut e.grants,
                &mut e.evtchn,
                "http_server",
                SERVER,
            )
            .unwrap();
        assert_eq!(accepted.len(), 2);
        let clients: Vec<u32> = accepted.iter().map(|a| a.client.0).collect();
        assert!(clients.contains(&7) && clients.contains(&9));
        // Accepting again with an empty queue yields nothing.
        let empty = e
            .registry
            .accept(
                &mut e.xs,
                &mut e.grants,
                &mut e.evtchn,
                "http_server",
                SERVER,
            )
            .unwrap();
        assert!(empty.is_empty());
    }

    #[test]
    fn accept_one_takes_only_the_named_request() {
        let mut e = env();
        e.registry.register(&mut e.xs, "synjitsu", SERVER).unwrap();
        ConduitRegistry::connect(&mut e.xs, DomId(7), "synjitsu", "alice").unwrap();
        ConduitRegistry::connect(&mut e.xs, DomId(9), "synjitsu", "bob").unwrap();
        let got = e
            .registry
            .accept_one(
                &mut e.xs,
                &mut e.grants,
                &mut e.evtchn,
                "synjitsu",
                SERVER,
                "alice",
            )
            .unwrap();
        assert_eq!(got.conn, "alice");
        assert_eq!(got.client, DomId(7));
        // Bob's request is still queued, untouched.
        assert!(e
            .xs
            .exists(SERVER, None, "/conduit/synjitsu/listen/bob")
            .unwrap());
        assert!(!e
            .xs
            .exists(SERVER, None, "/conduit/synjitsu/listen/alice")
            .unwrap());
        // Accepting a connection that was never requested is an error.
        assert!(e
            .registry
            .accept_one(
                &mut e.xs,
                &mut e.grants,
                &mut e.evtchn,
                "synjitsu",
                SERVER,
                "carol",
            )
            .is_err());
    }

    #[test]
    fn close_marks_flow_closed_and_removes_metadata() {
        let mut e = env();
        e.registry
            .register(&mut e.xs, "http_server", SERVER)
            .unwrap();
        ConduitRegistry::connect(&mut e.xs, CLIENT, "http_server", "conn1").unwrap();
        let accepted = e
            .registry
            .accept(
                &mut e.xs,
                &mut e.grants,
                &mut e.evtchn,
                "http_server",
                SERVER,
            )
            .unwrap();
        let flow_id = accepted[0].flow_id;
        ConduitRegistry::close(&mut e.xs, "http_server", SERVER, "conn1", flow_id).unwrap();
        assert!(!e
            .xs
            .exists(DomId::DOM0, None, "/local/domain/3/vchan/conn1")
            .unwrap());
        assert_eq!(
            FlowTable::state(&mut e.xs, DomId::DOM0, flow_id).unwrap(),
            Some(FlowState::Closed)
        );
    }

    #[test]
    fn connect_to_unregistered_service_fails() {
        let mut e = env();
        assert!(matches!(
            ConduitRegistry::connect(&mut e.xs, CLIENT, "nothing_here", "conn1"),
            Err(ConduitError::UnknownService(_))
        ));
    }
}
