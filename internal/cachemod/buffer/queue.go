package buffer

import "fmt"

// link is one queue membership of a frame. A block embeds two — repl, for
// the one replacement queue its policy reads, and dirt, for the dirty
// queue — so a frame joins and leaves its queues without allocating: like
// the frames themselves, the list nodes exist from New on.
type link struct {
	prev, next *link
	q          *queue // the queue holding the link; nil when detached
	b          *block // the frame the link is embedded in (set once by New)
}

// queue is an intrusive doubly-linked list of frames, nil-terminated at
// both ends. The zero value is an empty queue.
type queue struct {
	head, tail *link
	n          int
}

func (q *queue) pushFront(l *link) {
	l.q, l.prev, l.next = q, nil, q.head
	if q.head != nil {
		q.head.prev = l
	} else {
		q.tail = l
	}
	q.head = l
	q.n++
}

func (q *queue) pushBack(l *link) {
	l.q, l.prev, l.next = q, q.tail, nil
	if q.tail != nil {
		q.tail.next = l
	} else {
		q.head = l
	}
	q.tail = l
	q.n++
}

// unlink detaches l from the queue holding it.
func (l *link) unlink() {
	q := l.q
	if l.prev != nil {
		l.prev.next = l.next
	} else {
		q.head = l.next
	}
	if l.next != nil {
		l.next.prev = l.prev
	} else {
		q.tail = l.prev
	}
	l.q, l.prev, l.next = nil, nil, nil
	q.n--
}

// check walks the queue and verifies the chain: n links, each owned by q
// and embedded in the frame it names, prev mirroring next.
func (q *queue) check() error {
	n := 0
	var prev *link
	for l := q.head; l != nil; prev, l = l, l.next {
		if n == q.n || l.q != q || l.prev != prev || (l != &l.b.repl && l != &l.b.dirt) {
			return fmt.Errorf("link %d of %d (block %v) is miswired", n, q.n, l.b.key)
		}
		n++
	}
	if n != q.n || q.tail != prev {
		return fmt.Errorf("walked %d links to tail %p, queue records %d and %p", n, prev, q.n, q.tail)
	}
	return nil
}
