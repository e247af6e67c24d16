//! A trustee as a party on the network (§III-H), with an endpoint of its
//! own: the result needs only `h_t` trustees and a BB majority up.

use crate::{Trustee, TrusteeError};
use ddemos_bb::{retry_pause, MajorityReader, RemoteBb};
use ddemos_net::DynEndpoint;
use ddemos_protocol::clock::{ActorReservation, GlobalClock, VirtualClock};
use ddemos_protocol::messages::BbWriteMsg;
use std::sync::Arc;
use std::time::Duration;

/// Runs `trustee` over `endpoint` on a thread of its own, an actor of a
/// virtual `clock` from before it starts: it waits until a BB majority of
/// the replicas `bb(0)…bb(num_bb − 1)` shows the vote set and the
/// challenge (reads paced by [`retry_pause`]), writes its post to every
/// replica and drops the endpoint, which closes its connections.
///
/// The thread ends with [`TrusteeError::PostRefused`] when less than a BB
/// majority accepted the post, [`TrusteeError::Disconnected`] when the
/// transport shut down first, or what [`Trustee::produce_post`] found
/// wrong with the board.
///
/// # Errors
/// The thread could not be spawned.
pub fn spawn(
    trustee: Trustee,
    endpoint: DynEndpoint,
    num_bb: usize,
    clock: &GlobalClock,
) -> std::io::Result<std::thread::JoinHandle<Result<(), TrusteeError>>> {
    let reservation = clock.virtual_clock().map(VirtualClock::reserve_actor);
    std::thread::Builder::new()
        .name(format!("trustee-{}", trustee.index()))
        .spawn(move || {
            let _actor = reservation.map(ActorReservation::activate);
            serve(&trustee, endpoint, num_bb)
        })
}

fn serve(trustee: &Trustee, endpoint: DynEndpoint, num_bb: usize) -> Result<(), TrusteeError> {
    let replicas = RemoteBb::replicas(endpoint, num_bb);
    let port = replicas.first().ok_or(TrusteeError::Disconnected)?;
    let reader = MajorityReader::over_remote(&replicas);
    // Each round waits first, so nodes started together act in the
    // order the virtual clock wakes them, not the order they spawned.
    let mut waited = Duration::ZERO;
    let snapshot = loop {
        let pause = retry_pause(waited);
        if !port.idle(pause) {
            return Err(TrusteeError::Disconnected);
        }
        waited += pause;
        match reader.read_snapshot() {
            Some(s) if s.vote_set.is_some() && s.challenge.is_some() => break s,
            _ => {}
        }
    };
    let (post, sig) = trustee.produce_post(&snapshot)?;
    let post = BbWriteMsg::TrusteePost {
        post: Arc::new(post),
        sig,
    };
    let accepted = RemoteBb::write_all(&replicas, &[post]).iter().sum();
    if accepted < reader.required_majority() {
        return Err(TrusteeError::PostRefused { accepted });
    }
    Ok(())
}
