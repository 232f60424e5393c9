package dnn

// Blobs exposes the net's blob namespace to the external executor test,
// which compares every activation and gradient, not just named outputs.
func (n *Net) Blobs() map[string]*Blob { return n.blobs }
