package link

// WireHalves reports, from the sending end of a cross-shard wire, the frames
// staged in its pipe for the next barrier and the frames in the peer's inbox
// awaiting their arrival times.
func (p *Port) WireHalves() (staged, inbound int) { return p.pipe.Len(), p.peer.inbox.Len() }
