package server

import (
	"fmt"
	"net/http"
	"strings"

	"regiongrow"
	"regiongrow/client"
)

// The /v1/cluster endpoints expose the distributed engine's dynamic
// membership: GET reports the member list with a fresh health probe per
// worker; POST join/leave grow and shrink the cluster between jobs, with
// no restart of the server or the workers. They exist only when the
// server was started with cluster workers — elsewhere they answer 404,
// which the SDK translates into client.ErrNoCluster.

// clusterSegmenter resolves the Distributed session, answering the 404
// contract itself when the server runs without a cluster.
func (s *Server) clusterSegmenter(w http.ResponseWriter) (*regiongrow.Segmenter, bool) {
	sg, ok := s.segmenters[regiongrow.Distributed]
	if !ok {
		http.Error(w, "no cluster on this server (start regiongrowd with -cluster host:port,...)", http.StatusNotFound)
		return nil, false
	}
	return sg, true
}

func (s *Server) handleClusterGet(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.clusterSegmenter(w)
	if !ok {
		return
	}
	health, err := sg.ClusterHealth(r.Context())
	if err != nil {
		http.Error(w, err.Error(), http.StatusInternalServerError)
		return
	}
	st := client.ClusterStatus{
		Engine:  regiongrow.Distributed.String(),
		Workers: len(health),
		Members: make([]client.ClusterMember, len(health)),
	}
	for i, m := range health {
		st.Members[i] = client.ClusterMember{Addr: m.Addr, Healthy: m.Healthy}
	}
	WriteJSON(w, http.StatusOK, st)
}

// clusterAddr extracts and lightly validates the addr parameter the join
// and leave mutations share.
func clusterAddr(w http.ResponseWriter, r *http.Request) (string, bool) {
	addr := strings.TrimSpace(r.URL.Query().Get("addr"))
	if addr == "" {
		http.Error(w, "missing addr parameter (a regiongrow-worker host:port)", http.StatusBadRequest)
		return "", false
	}
	return addr, true
}

func (s *Server) handleClusterJoin(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.clusterSegmenter(w)
	if !ok {
		return
	}
	addr, ok := clusterAddr(w, r)
	if !ok {
		return
	}
	changed, err := sg.ClusterJoin(addr)
	if err != nil {
		http.Error(w, err.Error(), http.StatusBadRequest)
		return
	}
	s.clusterUpdate(w, sg, changed)
}

func (s *Server) handleClusterLeave(w http.ResponseWriter, r *http.Request) {
	sg, ok := s.clusterSegmenter(w)
	if !ok {
		return
	}
	addr, ok := clusterAddr(w, r)
	if !ok {
		return
	}
	changed, err := sg.ClusterLeave(addr)
	if err != nil {
		// The one domain error here is removing the last worker — a
		// conflict with the invariant that a cluster always has one.
		http.Error(w, err.Error(), http.StatusConflict)
		return
	}
	s.clusterUpdate(w, sg, changed)
}

func (s *Server) clusterUpdate(w http.ResponseWriter, sg *regiongrow.Segmenter, changed bool) {
	members, err := sg.ClusterMembers()
	if err != nil {
		http.Error(w, fmt.Sprintf("reading membership: %v", err), http.StatusInternalServerError)
		return
	}
	WriteJSON(w, http.StatusOK, client.ClusterUpdate{Changed: changed, Members: members})
}
