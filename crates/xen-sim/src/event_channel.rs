//! Event channels: the virtual interrupt mechanism.
//!
//! An event channel is a one-bit notification line between two domains (or a
//! domain and Xen). The split-driver rings and vchan use a grant-shared page
//! for data plus an event channel to signal "I produced/consumed something".
//! The model follows the real API: a domain allocates an *unbound* port for a
//! named remote domain, the remote *binds* to it obtaining its own port, and
//! either side may then `notify`, which sets the peer's pending bit unless
//! masked.

use std::collections::BTreeMap;
use xenstore::DomId;

/// A per-domain event channel port number.
#[derive(Debug, Clone, Copy, PartialEq, Eq, Hash, PartialOrd, Ord)]
pub struct Port(pub u32);

/// Errors from event channel operations.
#[derive(Debug, Clone, PartialEq, Eq)]
pub enum EventChannelError {
    /// The port does not exist for that domain.
    BadPort(Port),
    /// The port exists but is not in a bindable state for the caller.
    NotBindable,
    /// The port is already bound.
    AlreadyBound,
}

#[derive(Debug, Clone, Copy, PartialEq, Eq)]
enum ChannelState {
    /// Allocated by `owner` for `remote`, awaiting the remote's bind.
    Unbound { remote: DomId },
    /// Connected to the peer's port.
    Interdomain { peer: DomId, peer_port: Port },
    /// Torn down.
    Closed,
}

#[derive(Debug, Clone)]
struct Channel {
    state: ChannelState,
    pending: bool,
    masked: bool,
}

/// The host-wide event channel table.
#[derive(Debug, Default)]
pub struct EventChannelTable {
    channels: BTreeMap<(DomId, Port), Channel>,
    next_port: BTreeMap<DomId, u32>,
}

impl EventChannelTable {
    /// Create an empty table.
    pub fn new() -> EventChannelTable {
        EventChannelTable::default()
    }

    fn alloc_port(&mut self, dom: DomId) -> Port {
        let counter = self.next_port.entry(dom).or_insert(1);
        let port = Port(*counter);
        *counter += 1;
        port
    }

    /// Allocate an unbound port on `owner` that only `remote` may bind.
    pub fn alloc_unbound(&mut self, owner: DomId, remote: DomId) -> Port {
        let port = self.alloc_port(owner);
        self.channels.insert(
            (owner, port),
            Channel {
                state: ChannelState::Unbound { remote },
                pending: false,
                masked: false,
            },
        );
        port
    }

    /// Bind to a remote domain's unbound port, returning the local port.
    pub fn bind_interdomain(
        &mut self,
        local: DomId,
        remote: DomId,
        remote_port: Port,
    ) -> Result<Port, EventChannelError> {
        let remote_chan = self
            .channels
            .get(&(remote, remote_port))
            .ok_or(EventChannelError::BadPort(remote_port))?;
        match remote_chan.state {
            ChannelState::Unbound { remote: expected } if expected == local => {}
            ChannelState::Unbound { .. } => return Err(EventChannelError::NotBindable),
            ChannelState::Interdomain { .. } => return Err(EventChannelError::AlreadyBound),
            ChannelState::Closed => return Err(EventChannelError::BadPort(remote_port)),
        }
        let local_port = self.alloc_port(local);
        self.channels.insert(
            (local, local_port),
            Channel {
                state: ChannelState::Interdomain {
                    peer: remote,
                    peer_port: remote_port,
                },
                pending: false,
                masked: false,
            },
        );
        #[expect(clippy::expect_used, reason = "presence checked by the lookup above")]
        let remote_chan = self
            .channels
            .get_mut(&(remote, remote_port))
            .expect("looked up above");
        remote_chan.state = ChannelState::Interdomain {
            peer: local,
            peer_port: local_port,
        };
        Ok(local_port)
    }

    /// Send a notification from `(dom, port)` to its peer. Returns `true` if
    /// the peer's pending bit was newly set (i.e. a wakeup should be
    /// delivered), `false` if it was already pending or is masked.
    pub fn notify(&mut self, dom: DomId, port: Port) -> Result<bool, EventChannelError> {
        let chan = self
            .channels
            .get(&(dom, port))
            .ok_or(EventChannelError::BadPort(port))?;
        let (peer, peer_port) = match chan.state {
            ChannelState::Interdomain { peer, peer_port } => (peer, peer_port),
            _ => return Err(EventChannelError::NotBindable),
        };
        let peer_chan = self
            .channels
            .get_mut(&(peer, peer_port))
            .ok_or(EventChannelError::BadPort(peer_port))?;
        if peer_chan.masked {
            return Ok(false);
        }
        let newly = !peer_chan.pending;
        peer_chan.pending = true;
        Ok(newly)
    }

    /// Read and clear the pending bit (what a guest's interrupt handler does).
    pub fn take_pending(&mut self, dom: DomId, port: Port) -> Result<bool, EventChannelError> {
        let chan = self
            .channels
            .get_mut(&(dom, port))
            .ok_or(EventChannelError::BadPort(port))?;
        let was = chan.pending;
        chan.pending = false;
        Ok(was)
    }

    /// Mask or unmask a port (masked ports do not receive notifications).
    pub fn set_masked(
        &mut self,
        dom: DomId,
        port: Port,
        masked: bool,
    ) -> Result<(), EventChannelError> {
        let chan = self
            .channels
            .get_mut(&(dom, port))
            .ok_or(EventChannelError::BadPort(port))?;
        chan.masked = masked;
        Ok(())
    }

    /// Close a port; the peer's port (if any) is also closed.
    pub fn close(&mut self, dom: DomId, port: Port) -> Result<(), EventChannelError> {
        let chan = self
            .channels
            .get_mut(&(dom, port))
            .ok_or(EventChannelError::BadPort(port))?;
        let peer = match chan.state {
            ChannelState::Interdomain { peer, peer_port } => Some((peer, peer_port)),
            _ => None,
        };
        chan.state = ChannelState::Closed;
        chan.pending = false;
        if let Some((peer, peer_port)) = peer {
            if let Some(pc) = self.channels.get_mut(&(peer, peer_port)) {
                pc.state = ChannelState::Closed;
                pc.pending = false;
            }
        }
        Ok(())
    }

    /// Tear down every port belonging to a destroyed domain.
    pub fn domain_destroyed(&mut self, dom: DomId) {
        let ports: Vec<Port> = self
            .channels
            .keys()
            .filter(|(d, _)| *d == dom)
            .map(|(_, p)| *p)
            .collect();
        for port in ports {
            #[expect(
                clippy::let_underscore_must_use,
                reason = "every port was just listed from `channels`, so `close` cannot report BadPort"
            )]
            let _ = self.close(dom, port);
        }
        self.channels.retain(|(d, _), _| *d != dom);
    }

    /// Number of live (non-closed) ports a domain holds.
    pub fn ports_of(&self, dom: DomId) -> usize {
        self.channels
            .iter()
            .filter(|((d, _), c)| *d == dom && c.state != ChannelState::Closed)
            .count()
    }
}

#[cfg(test)]
mod tests {
    use super::*;

    fn connected_pair(table: &mut EventChannelTable) -> (Port, Port) {
        let server_port = table.alloc_unbound(DomId(3), DomId(7));
        let client_port = table
            .bind_interdomain(DomId(7), DomId(3), server_port)
            .unwrap();
        (server_port, client_port)
    }

    #[test]
    fn alloc_bind_notify_roundtrip() {
        let mut t = EventChannelTable::new();
        let (sp, cp) = connected_pair(&mut t);
        // Client notifies server.
        assert!(t.notify(DomId(7), cp).unwrap());
        assert!(t.take_pending(DomId(3), sp).unwrap());
        assert!(!t.take_pending(DomId(3), sp).unwrap(), "pending bit clears");
        // Server notifies client.
        assert!(t.notify(DomId(3), sp).unwrap());
        assert!(t.take_pending(DomId(7), cp).unwrap());
    }

    #[test]
    fn duplicate_notify_coalesces() {
        let mut t = EventChannelTable::new();
        let (sp, cp) = connected_pair(&mut t);
        assert!(t.notify(DomId(7), cp).unwrap());
        assert!(!t.notify(DomId(7), cp).unwrap(), "second notify coalesces");
        assert!(t.take_pending(DomId(3), sp).unwrap());
    }

    #[test]
    fn only_named_remote_may_bind() {
        let mut t = EventChannelTable::new();
        let sp = t.alloc_unbound(DomId(3), DomId(7));
        assert_eq!(
            t.bind_interdomain(DomId(9), DomId(3), sp),
            Err(EventChannelError::NotBindable)
        );
        let _ = t.bind_interdomain(DomId(7), DomId(3), sp).unwrap();
        // Re-binding an already-bound port fails.
        assert_eq!(
            t.bind_interdomain(DomId(7), DomId(3), sp),
            Err(EventChannelError::AlreadyBound)
        );
    }

    #[test]
    fn masked_ports_suppress_notifications() {
        let mut t = EventChannelTable::new();
        let (sp, cp) = connected_pair(&mut t);
        t.set_masked(DomId(3), sp, true).unwrap();
        assert!(!t.notify(DomId(7), cp).unwrap());
        assert!(!t.take_pending(DomId(3), sp).unwrap());
        t.set_masked(DomId(3), sp, false).unwrap();
        assert!(t.notify(DomId(7), cp).unwrap());
    }

    #[test]
    fn bad_ports_are_errors() {
        let mut t = EventChannelTable::new();
        assert!(matches!(
            t.notify(DomId(1), Port(9)),
            Err(EventChannelError::BadPort(_))
        ));
        assert!(matches!(
            t.bind_interdomain(DomId(1), DomId(2), Port(9)),
            Err(EventChannelError::BadPort(_))
        ));
        let unbound = t.alloc_unbound(DomId(1), DomId(2));
        // Notifying an unbound port is an error.
        assert!(matches!(
            t.notify(DomId(1), unbound),
            Err(EventChannelError::NotBindable)
        ));
    }

    #[test]
    fn close_tears_down_both_ends() {
        let mut t = EventChannelTable::new();
        let (sp, cp) = connected_pair(&mut t);
        t.close(DomId(3), sp).unwrap();
        assert!(matches!(
            t.notify(DomId(7), cp),
            Err(EventChannelError::NotBindable)
        ));
        assert_eq!(t.ports_of(DomId(3)), 0);
        assert_eq!(t.ports_of(DomId(7)), 0);
    }

    #[test]
    fn domain_destruction_closes_peer_ports() {
        let mut t = EventChannelTable::new();
        let (_sp, cp) = connected_pair(&mut t);
        t.domain_destroyed(DomId(3));
        assert!(matches!(
            t.notify(DomId(7), cp),
            Err(EventChannelError::NotBindable)
        ));
        assert_eq!(t.ports_of(DomId(3)), 0);
    }

    #[test]
    fn ports_are_per_domain() {
        let mut t = EventChannelTable::new();
        let a = t.alloc_unbound(DomId(3), DomId(7));
        let b = t.alloc_unbound(DomId(5), DomId(7));
        assert_eq!(a, Port(1));
        assert_eq!(b, Port(1), "each domain has its own port space");
        assert_eq!(t.ports_of(DomId(3)), 1);
    }
}
