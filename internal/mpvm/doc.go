// Package mpvm is a message-passing virtual machine in the style of the
// CM-5 running CMMD: a fixed set of node processes (goroutines) exchanging
// typed messages, with barriers, global reductions, global concatenation,
// and the paper's two irregular all-to-many communication schemes:
//
//   - Linear Permutation (LP): every node first obtains the communication
//     matrix via global concatenation; then in step i (0 < i < Q) node k
//     sends to node (k+i) mod Q and receives from node (k−i) mod Q, in
//     lockstep. Nodes loop Q−1 times whether or not they have data.
//   - Async: nodes post their messages directly and receive until their
//     expected count is satisfied, accepting them in simulated arrival
//     order so no clock depends on goroutine scheduling.
//
// Every node owns a simulated clock. Compute is charged explicitly by the
// node program; messages carry the sender's clock plus transfer time, and
// a receive advances the receiver's clock to at least the message's
// arrival time. Collectives synchronise clocks to the latest participant.
// Wall-clock parallelism is real (goroutines); simulated time models the
// 1993 machine.
package mpvm
